package exp

import (
	"fmt"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// normsUnderModel runs the named policy on in under the given machine model
// and returns the streaming ℓ1/ℓ2/ℓ3 flow norms from one pass. The engine is
// cfg-selected as everywhere else in the suite: RR keeps its fast path under
// heterogeneous speeds, rank-based policies fall back to the reference
// engine, whose Policy.Rates call applies their uniform-machine rules.
func normsUnderModel(cfg Config, in *core.Instance, name string, m int, mm core.Machines) ([3]float64, error) {
	var out [3]float64
	p, err := policy.New(name)
	if err != nil {
		return out, err
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	opts := core.Options{Machines: m, Speed: 1, MachineModel: mm, Observer: sn}
	if _, err := runEngine(cfg, in, p, opts); err != nil {
		return out, fmt.Errorf("exp: %s under model %v: %w", name, mm.Speeds, err)
	}
	for i, k := range []int{1, 2, 3} {
		out[i] = sn.Norm(k)
	}
	return out, nil
}

// E27 — the generalized machine model as an ablation: the same Poisson
// workload on m machines whose speed vectors share one total speed Σ s_i = m
// but concentrate it progressively onto fewer machines. Identical unit
// machines are the paper's model; the heterogeneous columns measure how much
// each policy's ℓk norms move when capacity is skewed, with RR's water-filling
// shares doing the balancing. E27b re-runs the identical side at the Theorem 1
// speed η = 2k(1+10ε) and reports the dual-fitting certificate — the theory
// only speaks to identical machines, so the certificate is attached exactly
// there.
func E27(cfg Config) ([]*Table, error) {
	ta := &Table{
		ID:      "E27a",
		Title:   "Heterogeneous speeds at equal total capacity: ℓk flow norms",
		Columns: []string{"model", "policy", "l1", "l2", "l3", "l2_vs_identical"},
		Notes: []string{
			"all models have total speed Σ s_i = m = 4; 'identical' is the paper's model",
			"l2_vs_identical = ℓ2 under the model / ℓ2 on identical machines (same policy)",
			"RR shares follow the water-filling rule; rank policies run their MachineAware rates",
		},
	}
	const m = 4
	n := pick(cfg.Quick, 60, 400)
	in := workload.PoissonLoad(stats.NewRNG(cfg.Seed+2700), n, m, 0.9, workload.ExpSizes{M: 1})
	models := []struct {
		name string
		mm   core.Machines
	}{
		{"identical", core.Machines{}},
		{"mild 1.5,1.5,0.5,0.5", core.Machines{Speeds: []float64{1.5, 1.5, 0.5, 0.5}}},
		{"skew 2.5,0.5,0.5,0.5", core.Machines{Speeds: []float64{2.5, 0.5, 0.5, 0.5}}},
		{"extreme 3.7,0.1,0.1,0.1", core.Machines{Speeds: []float64{3.7, 0.1, 0.1, 0.1}}},
	}
	for _, pol := range []string{"RR", "SRPT", "HYBRID"} {
		var identL2 float64
		for _, mod := range models {
			norms, err := normsUnderModel(cfg, in, pol, m, mod.mm)
			if err != nil {
				return nil, err
			}
			if mod.mm.Default() {
				identL2 = norms[1]
			}
			ta.AddRow(mod.name, pol, norms[0], norms[1], norms[2], norms[1]/identL2)
		}
	}

	tb := &Table{
		ID:      "E27b",
		Title:   "Dual-fitting certificate on the identical side at η = 2k(1+10ε)",
		Columns: []string{"k", "speed", "feasible", "obj_frac", "certified_ratio"},
		Notes: []string{
			"Theorem 1 applies to identical machines only; the certificate is checked there",
			"certified_ratio = (2γ/obj_frac)^{1/k} when the dual is feasible, ∞ otherwise",
		},
	}
	const eps = 0.05
	for _, k := range []int{2, 3} {
		eta := dual.Eta(k, eps)
		w, err := dual.NewWitnessObserver(k, eps, m)
		if err != nil {
			return nil, err
		}
		if _, err := runObserved(cfg, in, "RR", m, eta, w); err != nil {
			return nil, err
		}
		cert, err := w.Certificate()
		if err != nil {
			return nil, err
		}
		ratio := "∞"
		if cert.Feasible {
			ratio = fmt.Sprintf("%.4g", cert.ImpliedNormRatio)
		}
		tb.AddRow(k, eta, cert.Feasible, cert.ObjectiveFraction, ratio)
	}
	return []*Table{ta, tb}, nil
}

// E28 — preemption cost as a robustness sweep: charge every preemption
// (a running job's rate dropping to zero while unfinished) a fixed work
// surcharge and watch the ℓk norms. RR never preempts — every alive job
// always holds a positive share — so its rows are invariant in the cost,
// while SRPT and the hybrid pay for each displacement. The sweep quantifies
// the temporal-fairness story from the systems side: RR's norms are the
// flat line.
func E28(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E28",
		Title:   "Preemption-cost sweep: ℓk flow norms (RR never pays)",
		Columns: []string{"preempt_cost", "policy", "l1", "l2", "l3", "l2_vs_free"},
		Notes: []string{
			"each preemption adds preempt_cost units of remaining work to the displaced job",
			"RR keeps every alive job at positive rate, so its rows are cost-invariant",
			"l2_vs_free = ℓ2 at this cost / ℓ2 at cost 0 (same policy)",
		},
	}
	const m = 2
	n := pick(cfg.Quick, 60, 400)
	in := workload.PoissonLoad(stats.NewRNG(cfg.Seed+2800), n, m, 0.85, workload.ExpSizes{M: 1})
	costs := pick(cfg.Quick, []float64{0, 0.05, 0.25}, []float64{0, 0.01, 0.05, 0.1, 0.25, 0.5})
	for _, pol := range []string{"RR", "SRPT", "HYBRID"} {
		var freeL2 float64
		for _, c := range costs {
			norms, err := normsUnderModel(cfg, in, pol, m, core.Machines{PreemptCost: c})
			if err != nil {
				return nil, err
			}
			if c == 0 {
				freeL2 = norms[1]
			}
			t.AddRow(c, pol, norms[0], norms[1], norms[2], norms[1]/freeL2)
		}
	}
	return []*Table{t}, nil
}
