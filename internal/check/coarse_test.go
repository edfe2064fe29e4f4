package check

import (
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
)

// TestCoarseEpochInvariants pins the semantics of Coarse epochs against the
// exact per-event epoch stream: fast-engine runs with a coarse-tolerant
// recorder must emit exactly one Coarse epoch per maximal busy interval,
// whose Start/End bound the interval's exact epochs and whose Alive/RateSum
// equal the interval's opening exact epoch.
func TestCoarseEpochInvariants(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		opts.Engine = core.EngineFast
		for _, p := range Policies(seed) {
			if !fast.Eligible(p, opts) {
				continue
			}
			label := wallLabel(seed, p.Name(), core.EngineFast)

			exact := &wallObs{}
			eo := opts
			eo.Observer = exact
			if _, err := fast.Run(in, p, eo); err != nil {
				t.Fatalf("%s: exact run: %v", label, err)
			}
			crec := &coarseObs{}
			co := opts
			co.Observer = crec
			if _, err := fast.Run(in, p, co); err != nil {
				t.Fatalf("%s: coarse run: %v", label, err)
			}
			for i, e := range crec.eps {
				if !e.Coarse {
					t.Fatalf("%s: coarse-tolerant observer got exact epoch %d: %+v", label, i, e)
				}
			}

			// Coverage walk. The coarse epochs must be ordered and disjoint,
			// each exact epoch must lie inside exactly one coarse epoch, the
			// coarse boundaries must coincide with exact-epoch boundaries,
			// and each coarse epoch's Alive/RateSum must equal its opening
			// exact epoch's. (Two busy intervals separated by a zero-length
			// idle gap — a completion exactly at the next arrival — stay
			// split in the coarse stream even though the exact epochs abut,
			// so the walk checks containment, not gap-merging.)
			for i := 1; i < len(crec.eps); i++ {
				if crec.eps[i-1].End > crec.eps[i].Start {
					t.Fatalf("%s: coarse epochs %d/%d overlap: %+v, %+v", label, i-1, i, crec.eps[i-1], crec.eps[i])
				}
			}
			ci := 0
			opened := false // saw the exact epoch opening crec.eps[ci]
			for ei, e := range exact.eps {
				for ci < len(crec.eps) && e.Start >= crec.eps[ci].End {
					if !opened {
						t.Fatalf("%s: coarse epoch %d has no exact epoch at its start", label, ci)
					}
					ci++
					opened = false
				}
				if ci >= len(crec.eps) || e.Start < crec.eps[ci].Start || e.End > crec.eps[ci].End {
					t.Fatalf("%s: exact epoch %d %+v not covered by any coarse epoch", label, ei, e)
				}
				if e.Start == crec.eps[ci].Start {
					opened = true
					if e.Alive != crec.eps[ci].Alive || e.RateSum != crec.eps[ci].RateSum {
						t.Fatalf("%s: coarse epoch %d %+v does not snapshot opening exact epoch %+v",
							label, ci, crec.eps[ci], e)
					}
				}
			}
			if len(exact.eps) == 0 {
				if len(crec.eps) != 0 {
					t.Fatalf("%s: %d coarse epochs but no exact epochs", label, len(crec.eps))
				}
			} else {
				if ci != len(crec.eps)-1 || !opened {
					t.Fatalf("%s: coarse epochs %d..%d received no exact epochs", label, ci, len(crec.eps)-1)
				}
				if last, cl := exact.eps[len(exact.eps)-1], crec.eps[len(crec.eps)-1]; last.End != cl.End {
					t.Fatalf("%s: final coarse end %.17g, want %.17g", label, cl.End, last.End)
				}
			}
		}
	}
}

// coarseObs records epochs and opts into coarse delivery.
type coarseObs struct {
	eps []core.Epoch
}

func (o *coarseObs) ObserveArrival(t float64, job int, j core.Job)      {}
func (o *coarseObs) ObserveEpoch(e *core.Epoch)                         { o.eps = append(o.eps, *e) }
func (o *coarseObs) ObserveCompletion(t float64, job int, flow float64) {}
func (o *coarseObs) ObserveDone(res *core.Result)                       {}
func (o *coarseObs) CoarseEpochsOK() bool                               { return true }
