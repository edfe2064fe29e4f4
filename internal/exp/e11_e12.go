package exp

import (
	"fmt"
	"strings"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/lp"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// E11 — how tight is Theorem 1's speed requirement *for this certificate*?
// For each (k, workload) we bisect the smallest RR speed at which the
// paper's dual construction is feasible AND its objective is ≥ ε·ΣF^k, and
// compare it to the theorem's η = 2k(1+10ε). The certificate often holds
// well below η — the analysis has slack — but never below the speeds where
// the E2/E9 lower-bound experiments show genuine ratio growth.
func E11(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Minimal certificate-feasible RR speed vs Theorem 1's η",
		Columns: []string{"k", "workload", "eta_theorem", "min_feasible_speed", "slack_factor"},
		Notes: []string{
			"bisection over speed; feasible = dual constraints hold and dual objective ≥ ε·ΣF^k (ε=0.05)",
			"slack_factor = η / min_feasible_speed: how much of the speed requirement this instance actually uses",
		},
	}
	const eps = 0.05
	iters := pick(cfg.Quick, 8, 12)
	nP := pick(cfg.Quick, 40, 120)
	gC := pick(cfg.Quick, 6, 9)
	for _, k := range []int{1, 2, 3} {
		cases := []struct {
			name string
			in   *core.Instance
			m    int
		}{
			{"poisson", workload.PoissonLoad(stats.NewRNG(cfg.Seed+11), nP, 1, 0.9, workload.ExpSizes{M: 1}), 1},
			{"cascade", workload.Cascade(gC, 0.8), 1},
			{"rrstream", workload.RRStream(pick(cfg.Quick, 16, 48), 1), 1},
		}
		for _, c := range cases {
			eta := dual.Eta(k, eps)
			feasibleAt := func(speed float64) (bool, error) {
				w, err := dual.NewWitnessObserver(k, eps, c.m)
				if err != nil {
					return false, err
				}
				if _, err := runObserved(cfg, c.in, "RR", c.m, speed, w); err != nil {
					return false, err
				}
				cert, err := w.Certificate()
				if err != nil {
					return false, err
				}
				return cert.Feasible && cert.ObjectiveFraction >= eps, nil
			}
			// The certificate must hold at η (Theorem 1); search below it.
			ok, err := feasibleAt(eta)
			if err != nil {
				return nil, err
			}
			if !ok {
				t.AddRow(k, c.name, eta, "> η (!)", 0.0)
				continue
			}
			lo, hi := 0.25, eta // lo assumed infeasible or trivially slow
			for i := 0; i < iters; i++ {
				mid := (lo + hi) / 2
				ok, err := feasibleAt(mid)
				if err != nil {
					return nil, err
				}
				if ok {
					hi = mid
				} else {
					lo = mid
				}
			}
			t.AddRow(k, c.name, eta, hi, eta/hi)
		}
	}
	return []*Table{t}, nil
}

// E12 — ablation of the LP lower bound's discretization (the design choice
// DESIGN.md §5 calls out: every rounding goes down so the bound stays
// certified). We sweep slot counts and unit budgets on a fixed instance and
// report the bound, with each solve's wall-clock time in a note (notes reach
// stdout and report.html, never the CSV, so the CSV regenerates byte for
// byte): coarse grids are cheap and only slightly slack; the bound converges
// from below as the grid refines.
func E12(cfg Config) ([]*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "LP lower-bound discretization ablation (k=2)",
		Columns: []string{"slots", "max_units", "bound", "rel_to_finest"},
		Notes: []string{
			"fixed Poisson instance; every row is independently a certified lower bound",
		},
	}
	in := workload.PoissonLoad(stats.NewRNG(cfg.Seed+12), pick(cfg.Quick, 40, 120), 1, 0.9, workload.ExpSizes{M: 1})
	type setting struct {
		slots int
		units int64
	}
	settings := pick(cfg.Quick,
		[]setting{{50, 10000}, {150, 30000}, {300, 60000}},
		[]setting{{50, 10000}, {100, 20000}, {200, 40000}, {400, 80000}, {800, 160000}},
	)
	bounds := make([]float64, 0, len(settings))
	times := make([]string, 0, len(settings))
	for _, s := range settings {
		start := time.Now()
		b, err := lp.KPowerLowerBound(in, 1, 2, lp.Options{Slots: s.slots, MaxUnits: s.units})
		if err != nil {
			return nil, err
		}
		bounds = append(bounds, b.Value)
		times = append(times, fmt.Sprintf("%d slots %.4g ms", s.slots, float64(time.Since(start).Microseconds())/1000))
	}
	finest := bounds[len(bounds)-1]
	for i, s := range settings {
		t.AddRow(s.slots, fmt.Sprintf("%d", s.units), bounds[i], bounds[i]/finest)
	}
	t.Notes = append(t.Notes, "solve time (wall clock, this run): "+strings.Join(times, ", "))
	return []*Table{t}, nil
}
