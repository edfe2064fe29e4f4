package hunt

import (
	"context"
	"math"
	"testing"

	"rrnorm/internal/check"
	"rrnorm/internal/core"
	"rrnorm/internal/workload"
)

// FuzzShrinker fuzzes the shrinker's contract over seeded random
// instances: whatever the input, the shrunk witness must validate, never
// gain jobs, keep its recomputed ratio inside the two-sided tolerance
// window around the pre-shrink ratio, and spend at most its evaluation
// budget. The budget (0–60) comes from the input, so the fuzzer also
// tries cheap shrinks; every seed runs at the full 60. Run with
//
//	go test -fuzz=FuzzShrinker ./internal/hunt
//
// to explore beyond the seed corpus; under plain `go test` the f.Add seeds
// run as regular test cases.
func FuzzShrinker(f *testing.F) {
	for seed := uint64(0); seed < 12; seed++ {
		f.Add(seed, uint8(2), false, uint8(60))
	}
	f.Add(uint64(1), uint8(1), true, uint8(60))
	f.Add(uint64(2), uint8(3), true, uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, k uint8, multi bool, b uint8) {
		budget := int(b) % 61
		p := Params{K: 1 + int(k)%3, MaxJobs: 64}
		if multi {
			p.Machines = 2
		}
		p = p.withDefaults()
		in := check.RandomInstance(seed)
		if in.N() > p.MaxJobs {
			in = core.NewInstance(append([]core.Job(nil), in.Jobs[:p.MaxJobs]...))
		}
		ev, err := Evaluate(in, p)
		if err != nil {
			t.Skip() // RandomInstance can exceed LP limits; not the shrinker's fault
		}
		const tol = 1e-3
		sr, err := Shrink(context.Background(), in, ev, p, tol, budget)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := sr.Instance.Validate(); err != nil {
			t.Fatalf("seed %d: shrunk instance invalid: %v", seed, err)
		}
		if sr.Instance.N() > in.N() {
			t.Fatalf("seed %d: shrinker grew the instance %d -> %d", seed, in.N(), sr.Instance.N())
		}
		if ev.Ratio >= 0 {
			// Recompute from scratch — the contract is about the witness,
			// not the shrinker's bookkeeping.
			rev, err := Evaluate(sr.Instance, p)
			if err != nil {
				t.Fatalf("seed %d: re-evaluating shrunk witness: %v", seed, err)
			}
			if d := math.Abs(rev.Ratio - ev.Ratio); d > tol*(1+ev.Ratio)+1e-9 {
				t.Fatalf("seed %d: shrunk ratio %.9g drifted %g from pre-shrink %.9g (window %g)",
					seed, rev.Ratio, d, ev.Ratio, tol*(1+ev.Ratio))
			}
		}
		if sr.Evals > budget {
			t.Fatalf("seed %d: shrinker overspent: %d evals, budget %d", seed, sr.Evals, budget)
		}
	})
}

// TestShrinkRemovesPadding: jobs that contribute nothing to either side of
// the ratio (zero-size padding) are shrunk away, and the witness keeps the
// original ratio exactly.
func TestShrinkRemovesPadding(t *testing.T) {
	p := Params{K: 2}.withDefaults()
	base := workload.RRStream(6, 1)
	baseEv, err := Evaluate(base, p)
	if err != nil {
		t.Fatal(err)
	}
	jobs := append([]core.Job(nil), base.Jobs...)
	for i := 0; i < 6; i++ {
		jobs = append(jobs, core.Job{ID: len(jobs), Release: float64(i), Size: 0})
	}
	padded := core.NewInstance(jobs)
	ev, err := Evaluate(padded, p)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Shrink(context.Background(), padded, ev, p, 1e-3, 300)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Instance.N() >= padded.N() {
		t.Errorf("shrinker kept all %d jobs (padding not removed)", padded.N())
	}
	if sr.Steps == 0 {
		t.Error("no accepted shrink steps on a shrinkable instance")
	}
	if d := math.Abs(sr.Eval.Ratio - baseEv.Ratio); d > 2e-3*(1+baseEv.Ratio) {
		t.Errorf("shrunk ratio %.6f far from unpadded %.6f", sr.Eval.Ratio, baseEv.Ratio)
	}
}

// TestShrinkDegenerateInputs: unviable or trivial inputs come back
// unchanged without spending budget.
func TestShrinkDegenerateInputs(t *testing.T) {
	p := Params{K: 2}.withDefaults()
	one := core.NewInstance([]core.Job{{ID: 0, Size: 1}})
	ev, err := Evaluate(one, p)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Shrink(context.Background(), one, ev, p, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Instance != one || sr.Evals != 0 {
		t.Errorf("single-job instance was shrunk: %+v", sr)
	}

	zero := core.NewInstance([]core.Job{{ID: 0, Size: 0}, {ID: 1, Size: 0}})
	zev, err := Evaluate(zero, p)
	if err != nil {
		t.Fatal(err)
	}
	if zev.Ratio >= 0 {
		t.Fatalf("zero-work instance has viable ratio %g", zev.Ratio)
	}
	sr, err = Shrink(context.Background(), zero, zev, p, 1e-3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Instance != zero || sr.Evals != 0 {
		t.Errorf("degenerate-ratio instance was shrunk: %+v", sr)
	}
}

// TestShrinkDeterministic: shrinking is a pure function of its inputs.
func TestShrinkDeterministic(t *testing.T) {
	p := Params{K: 2}.withDefaults()
	in := workload.Cascade(4, 0.8)
	ev, err := Evaluate(in, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Shrink(context.Background(), in, ev, p, 1e-3, 120)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Shrink(context.Background(), in, ev, p, 1e-3, 120)
	if err != nil {
		t.Fatal(err)
	}
	if !sameJobs(a.Instance, b.Instance) || a.Evals != b.Evals || a.Steps != b.Steps {
		t.Fatalf("shrink not deterministic: %+v vs %+v", a, b)
	}
}

// TestShrinkHonorsBudget: the shrinker never evaluates more than its
// budget allows.
func TestShrinkHonorsBudget(t *testing.T) {
	p := Params{K: 2}.withDefaults()
	in := workload.RRStream(8, 1)
	ev, err := Evaluate(in, p)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Shrink(context.Background(), in, ev, p, 1e-3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Evals > 5 {
		t.Fatalf("budget 5, spent %d", sr.Evals)
	}
}
