package check

import (
	"fmt"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// TestEnginesAgreeScale extends the differential wall past the ≤60-job
// instances of TestEnginesAgreeBulk to the regime the engines serve:
// n = 10⁵ jobs at load 0.95, on one and four machines, with light-tailed
// exp(1) and heavy-tailed Pareto(α = 1.5) sizes. Fast and reference RR and
// SRPT must agree at DefaultTolerances; each case logs its max completion
// diff, which is the headroom left under the 1e-6 bar.
func TestEnginesAgreeScale(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁵-job reference runs; skipped under -short")
	}
	const n = 100_000
	dists := []workload.SizeDist{workload.ExpSizes{M: 1}, workload.ParetoSizes{Alpha: 1.5, Xm: 1}}
	for _, dist := range dists {
		for _, m := range []int{1, 4} {
			in := workload.PoissonLoad(stats.NewRNG(uint64(17+m)), n, m, 0.95, dist)
			for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT()} {
				t.Run(fmt.Sprintf("%s/%s/m=%d", p.Name(), dist.Name(), m), func(t *testing.T) {
					rep, err := Compare(in, p, core.Options{Machines: m, Speed: 1}, DefaultTolerances())
					if err != nil {
						t.Fatal(err)
					}
					t.Logf("max completion diff %.3g", rep.MaxCompletionDiff)
					if !rep.OK() {
						t.Fatal(rep)
					}
				})
			}
		}
	}
}
