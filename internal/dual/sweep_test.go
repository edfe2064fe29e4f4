package dual_test

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"rrnorm/internal/check"
	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/hunt"
	"rrnorm/internal/policy"
)

// TestConstraintSweepMatchesBruteForce holds the certificate's
// early-stopping constraint sweep to the brute-force oracle bit for bit:
// JobSlack, MaxViolation, ViolatingJob and Feasible, on reference RR
// schedules of the seeded random family (zero-size and sub-tolerance jobs,
// release ties) at m ∈ {1, 2, 4} and k ∈ {1, 2, 3}, and on every corpus
// witness; each at unit speed, where constraints fail, and at the
// theorem's speed η.
func TestConstraintSweepMatchesBruteForce(t *testing.T) {
	const eps = 0.05
	runs, infeasible := 0, 0
	compare := func(label string, in *core.Instance, m int, speed float64, k int) {
		t.Helper()
		var rec core.SegmentRecorder
		res, err := core.Run(in, policy.NewRR(), core.Options{Machines: m, Speed: speed, Observer: &rec})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c, err := dual.Build(res, rec.Segments, k, eps)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(res.Jobs) == 0 {
			return // no sweep: Build returns the trivially feasible certificate
		}
		slack, maxV, vj, feasible := dual.BruteConstraintSweep(res, c)
		if len(c.JobSlack) != len(slack) {
			t.Fatalf("%s: %d slacks, brute force %d", label, len(c.JobSlack), len(slack))
		}
		for i := range slack {
			if math.Float64bits(c.JobSlack[i]) != math.Float64bits(slack[i]) {
				t.Fatalf("%s: JobSlack[%d] = %v, brute force %v", label, i, c.JobSlack[i], slack[i])
			}
		}
		if math.Float64bits(c.MaxViolation) != math.Float64bits(maxV) || c.ViolatingJob != vj || c.Feasible != feasible {
			t.Fatalf("%s: (MaxViolation %v, job %d, feasible %v), brute force (%v, %d, %v)",
				label, c.MaxViolation, c.ViolatingJob, c.Feasible, maxV, vj, feasible)
		}
		runs++
		if !feasible {
			infeasible++
		}
	}
	for seed := uint64(0); seed < 300; seed++ {
		in := check.RandomInstance(seed)
		for _, m := range []int{1, 2, 4} {
			for k := 1; k <= 3; k++ {
				for _, speed := range []float64{1, dual.Eta(k, eps)} {
					compare(sweepLabel("seed", int(seed), m, k, speed), in, m, speed, k)
				}
			}
		}
	}
	entries, err := hunt.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found: the committed witnesses are missing")
	}
	for ei, e := range entries {
		for k := 1; k <= 3; k++ {
			for _, speed := range []float64{e.Speed, dual.Eta(k, eps)} {
				compare(sweepLabel(e.Name, ei, e.Machines, k, speed), e.Instance(), e.Machines, speed, k)
			}
		}
	}
	t.Logf("%d certificates match the brute-force sweep, %d of them infeasible", runs, infeasible)
	if infeasible == 0 {
		t.Fatal("no infeasible certificate: the violating-job path went untested")
	}
}

func sweepLabel(name string, i, m, k int, speed float64) string {
	return fmt.Sprintf("%s %d m=%d k=%d s=%g", name, i, m, k, speed)
}
