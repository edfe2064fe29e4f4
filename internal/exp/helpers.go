package exp

import (
	"context"
	"fmt"
	"math"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/lp"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
)

// runEngine simulates via the engine selected by cfg.Engine. The default
// (EngineAuto) takes the event-driven fast path for the structured policies
// and falls back to the reference engine otherwise, so the whole suite
// benefits without per-experiment opt-ins.
func runEngine(cfg Config, in *core.Instance, p core.Policy, opts core.Options) (*core.Result, error) {
	opts.Engine = cfg.Engine
	return fast.Run(in, p, opts)
}

// runPolicy simulates the named policy and returns the result. The suite's
// data paths are segment-free; experiments that need timeline or
// per-job-epoch data attach a streaming observer via runObserved.
func runPolicy(cfg Config, in *core.Instance, name string, m int, speed float64) (*core.Result, error) {
	return runObserved(cfg, in, name, m, speed, nil)
}

// runObserved simulates the named policy with a streaming observer
// attached, which reduces the schedule during the run instead of from a
// recorded timeline. Observers that need per-job epochs (dual witnesses,
// age moments) route the run to the reference engine.
func runObserved(cfg Config, in *core.Instance, name string, m int, speed float64, obs core.Observer) (*core.Result, error) {
	p, err := policy.New(name)
	if err != nil {
		return nil, err
	}
	res, err := runEngine(cfg, in, p, core.Options{Machines: m, Speed: speed, Observer: obs})
	if err != nil {
		return nil, fmt.Errorf("exp: %s at speed %.3g: %w", name, speed, err)
	}
	return res, nil
}

// runWith runs a concrete policy instance on one machine at unit speed and
// returns the ℓk norm of the flows, accumulated by a streaming
// metrics.StreamNorm as completions happen — used by parameter ablations.
func runWith(cfg Config, in *core.Instance, p core.Policy, k int) (float64, error) {
	s := metrics.NewStreamNorm(k)
	if _, err := runEngine(cfg, in, p, core.Options{Machines: 1, Speed: 1, Observer: s}); err != nil {
		return 0, fmt.Errorf("exp: %s: %w", p.Name(), err)
	}
	return s.Norm(k), nil
}

// kPower runs the policy and returns its Σ F^k, folded into a streaming
// power sum at each completion instead of post-processed from res.Flow.
func kPower(cfg Config, in *core.Instance, name string, m, k int, speed float64) (float64, error) {
	s := metrics.NewStreamNorm(k)
	if _, err := runObserved(cfg, in, name, m, speed, s); err != nil {
		return 0, err
	}
	return s.PowerSum(k), nil
}

// kPowerGrid computes Σ F^k for every (policy, speed) pair on one instance
// through the memory-bounded batch runner (internal/batch): one flat batch
// of |names|·|speeds| points over per-worker pooled workspaces — bounded
// peak memory and zero steady-state allocations — instead of that many
// independently allocating kPower runs. Each point carries its own
// StreamNorm observer (observers are per-run state, like policies: sharing
// one between concurrent points would race), so the power sums accumulate
// during the runs and consume never touches res.Flow. grid[pi][si] aligns
// with names × speeds; values are byte-identical to sequential kPower
// calls, which use the same streaming accumulation.
func kPowerGrid(cfg Config, in *core.Instance, names []string, m, k int, speeds []float64) ([][]float64, error) {
	pts := make([]batch.Point, 0, len(names)*len(speeds))
	obs := make([]*metrics.StreamNorm, 0, len(names)*len(speeds))
	for _, name := range names {
		for _, s := range speeds {
			p, err := policy.New(name)
			if err != nil {
				return nil, err
			}
			sn := metrics.NewStreamNorm(k)
			obs = append(obs, sn)
			pts = append(pts, batch.Point{
				Instance: in,
				Policy:   p,
				Options:  core.Options{Machines: m, Speed: s, Engine: cfg.Engine, Observer: sn},
			})
		}
	}
	grid := make([][]float64, len(names))
	for i := range grid {
		grid[i] = make([]float64, len(speeds))
	}
	err := batch.Run(context.Background(), pts, 0, func(i int, res *core.Result) error {
		grid[i/len(speeds)][i%len(speeds)] = obs[i].PowerSum(k)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: k-power grid (m=%d, k=%d): %w", m, k, err)
	}
	return grid, nil
}

// normRatio converts a k-th power ratio to an ℓk-norm ratio.
func normRatio(algPower, lbPower float64, k int) float64 {
	if lbPower <= 0 {
		return math.Inf(1)
	}
	return math.Pow(algPower/lbPower, 1/float64(k))
}

// lowerBound computes the certified LP/2 k-power lower bound with settings
// scaled to the instance size.
func lowerBound(in *core.Instance, m, k int, quick bool) (lp.Bound, error) {
	opts := lp.Options{Slots: 400, MaxUnits: 120000}
	if quick {
		opts.Slots = 150
		opts.MaxUnits = 30000
	}
	return lp.KPowerLowerBound(in, m, k, opts)
}

// bestPolicyPower returns the minimum Σ F^k over a basket of strong
// policies at unit speed — an UPPER estimate of OPT^k (any policy is
// feasible). Used to bracket ratios: ALG/upper ≤ true ratio ≤ ALG/(LP/2).
func bestPolicyPower(cfg Config, in *core.Instance, m, k int) (float64, string, error) {
	best := math.Inf(1)
	who := ""
	for _, name := range []string{"SRPT", "SJF", "SETF", "RR"} {
		v, err := kPower(cfg, in, name, m, k, 1)
		if err != nil {
			return 0, "", err
		}
		if v < best {
			best = v
			who = name
		}
	}
	return best, who, nil
}

// fitGrowthExponent is stats.FitPowerLaw: the growth exponent of ratio
// curves in n (≈0 means bounded).
func fitGrowthExponent(xs, ys []float64) float64 { return stats.FitPowerLaw(xs, ys) }

// pick returns q if quick, else full.
func pick[T any](quick bool, q, full T) T {
	if quick {
		return q
	}
	return full
}
