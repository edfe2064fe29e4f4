package exp

import (
	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// E5 — the temporal-fairness motivation (paper §1, quoting Silberschatz et
// al.: predictable response beats fast-on-average-but-variable). Two
// fixtures: the starvation stream (one big job + saturating unit stream)
// and a heavy-tailed Poisson mix. For each policy we report mean flow
// (what ℓ1 sees), the ℓ2 norm (what the paper optimizes), max flow,
// standard deviation, and Jain fairness on flows and on stretches.
func E5(cfg Config) ([]*Table, error) {
	policies := []string{"RR", "SRPT", "SJF", "SETF", "FCFS", "MLFQ"}
	mk := func(id, title string) *Table {
		return &Table{
			ID:      id,
			Title:   title,
			Columns: []string{"policy", "mean_flow", "L2", "max_flow", "std_flow", "jain_flow", "jain_stretch", "max_stretch"},
			Notes:   []string{"unit speed, single machine; higher Jain = fairer (1 = perfectly even)"},
		}
	}
	t1 := mk("E5a", "Starvation fixture: big job + saturating unit stream")
	nStream := pick(cfg.Quick, 30, 120)
	starv := workload.Starvation(10, nStream, 1.0)
	if err := fairnessRows(cfg, t1, starv, policies); err != nil {
		return nil, err
	}

	t2 := mk("E5b", "Heavy-tailed Poisson mix (Pareto α=1.6, load 0.85)")
	n := pick(cfg.Quick, 80, 400)
	heavy := workload.PoissonLoad(stats.NewRNG(cfg.Seed+5), n, 1, 0.85,
		workload.ParetoSizes{Alpha: 1.6, Xm: 1, Cap: 100})
	if err := fairnessRows(cfg, t2, heavy, policies); err != nil {
		return nil, err
	}
	return []*Table{t1, t2}, nil
}

// fairnessRows adds one row of fairness statistics per policy.
func fairnessRows(cfg Config, t *Table, in *core.Instance, policies []string) error {
	for _, name := range policies {
		res, err := runPolicy(cfg, in, name, 1, 1)
		if err != nil {
			return err
		}
		stretch := metrics.Stretches(res.Flow, sizesOf(res))
		t.AddRow(name,
			metrics.Mean(res.Flow),
			metrics.LkNorm(res.Flow, 2),
			metrics.Max(res.Flow),
			metrics.Stddev(res.Flow),
			metrics.JainIndex(res.Flow),
			metrics.JainIndex(stretch),
			metrics.Max(stretch),
		)
	}
	return nil
}

// E6 — multiple identical machines. RR's rate rule min{1, m/n_t} switches
// between the overloaded regime (share m machines) and the underloaded one
// (dedicated machine per job) — the T_o/T_u split at the heart of the dual
// fitting. We scale a Poisson workload with m, report RR's ℓ2 ratio at
// speeds 1 and 4, and measure the fraction of busy time that is
// overloaded.
func E6(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "RR on m machines: ℓ2 ratios and overload fraction",
		Columns: []string{"m", "n", "overload_frac", "RR_ratio_s1", "RR_ratio_s4"},
		Notes: []string{
			"Poisson load 0.9·m, exp sizes; overload_frac = fraction of busy time with n_t ≥ m",
		},
	}
	const k = 2
	ms := pick(cfg.Quick, []int{1, 2, 4}, []int{1, 2, 4, 8, 16})
	for _, m := range ms {
		n := pick(cfg.Quick, 20*m, 60*m)
		if n > 600 {
			n = 600
		}
		in := workload.PoissonLoad(stats.NewRNG(cfg.Seed+uint64(m)), n, m, 0.9, workload.ExpSizes{M: 1})
		lb, err := lowerBound(in, m, k, cfg.Quick)
		if err != nil {
			return nil, err
		}
		tl := stats.NewTimelineObserver(m)
		res, err := runObserved(cfg, in, "RR", m, 1, tl)
		if err != nil {
			return nil, err
		}
		// BusyTime and OverloadedTime accumulate exactly the per-segment
		// durations ComputeTimeStats sums over a recorded timeline, epoch
		// by epoch.
		st := tl.Stats()
		frac := 0.0
		if st.BusyTime > 0 {
			frac = st.OverloadedTime / st.BusyTime
		}
		r1 := normRatio(metrics.KthPowerSum(res.Flow, k), lb.Value, k)
		p4, err := kPower(cfg, in, "RR", m, k, 4)
		if err != nil {
			return nil, err
		}
		t.AddRow(m, n, frac, r1, normRatio(p4, lb.Value, k))
	}
	return []*Table{t}, nil
}

// E7 — the backstory comparison (§1.2): the age-weighted RR variant (WRR),
// known O(1)-speed O(1)-competitive for ℓ2, against plain RR at low speeds
// where RR's guarantee fails. Both are non-clairvoyant and instantaneously
// "fair" in their own sense; WRR matches shares to each job's contribution
// to the ℓ2 objective (twice its age).
func E7(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Age-weighted WRR vs RR (ℓ2 ratio vs LP/2)",
		Columns: []string{"instance", "speed", "RR", "WRR"},
		Notes:   []string{"WRR shares machines ∝ job age (capped at 1)"},
	}
	const k = 2
	speeds := pick(cfg.Quick, []float64{1.2, 2}, []float64{1.2, 1.5, 2, 3})
	cases := []struct {
		name string
		in   *core.Instance
	}{
		{"rrstream", workload.RRStream(pick(cfg.Quick, 24, 64), 1)},
		{"poisson", workload.PoissonLoad(stats.NewRNG(cfg.Seed+7), pick(cfg.Quick, 50, 150), 1, 0.95, workload.ExpSizes{M: 1})},
	}
	for _, c := range cases {
		lb, err := lowerBound(c.in, 1, k, cfg.Quick)
		if err != nil {
			return nil, err
		}
		for _, s := range speeds {
			rr, err := kPower(cfg, c.in, "RR", 1, k, s)
			if err != nil {
				return nil, err
			}
			wrr, err := kPower(cfg, c.in, "WRR", 1, k, s)
			if err != nil {
				return nil, err
			}
			t.AddRow(c.name, s, normRatio(rr, lb.Value, k), normRatio(wrr, lb.Value, k))
		}
	}
	return []*Table{t}, nil
}
