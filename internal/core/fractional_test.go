package core

import (
	"math/rand/v2"
	"strings"
	"testing"
)

func TestFractionalFlowSingleJob(t *testing.T) {
	// One job alone: remaining falls linearly, so fractional flow is half
	// the flow.
	in := NewInstance([]Job{{ID: 0, Release: 1, Size: 4}})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	ff, err := FractionalFlows(res, segs)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ff[0], 2, 1e-9, "fractional flow = F/2 for a lone job")
}

// TestFractionalFlowNeedsSegments covers both fractional readers: a run
// that did work needs its timeline, while zero-size jobs have fractional
// flow and age moment 0 from their empty one.
func TestFractionalFlowNeedsSegments(t *testing.T) {
	for _, row := range timelineRows(t) {
		ff, err := FractionalFlows(row.res, row.segs)
		if (err != nil) != row.missing {
			t.Errorf("%s: FractionalFlows error %v, want missing=%v", row.name, err, row.missing)
		}
		moment, merr := FractionalAgeMoment(row.res, row.segs, 2)
		if (merr != nil) != row.missing {
			t.Errorf("%s: FractionalAgeMoment error %v, want missing=%v", row.name, merr, row.missing)
		}
		if row.missing {
			continue
		}
		for i, f := range ff {
			if f != 0 {
				t.Errorf("%s: job %d fractional flow %v, want 0", row.name, i, f)
			}
		}
		if moment != 0 {
			t.Errorf("%s: age moment %v, want 0", row.name, moment)
		}
	}
}

func TestFractionalFlowEmpty(t *testing.T) {
	res, segs := mustRecord(t, NewInstance(nil), eqPolicy{}, Options{Machines: 1, Speed: 1})
	ff, err := FractionalFlows(res, segs)
	if err != nil || ff != nil {
		t.Fatalf("empty: %v %v", ff, err)
	}
}

// Fractional flow is at most the integral flow and positive, on random
// instances under both sharing and focused policies.
func TestFractionalFlowBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 7))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 1+rng.IntN(25))
		opts := Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, opts)
			ff, err := FractionalFlows(res, segs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range ff {
				if ff[i] <= 0 || ff[i] > res.Flow[i]*(1+1e-9) {
					t.Fatalf("trial %d %s: fractional flow %v vs flow %v", trial, p.Name(), ff[i], res.Flow[i])
				}
			}
		}
	}
}

func TestRenderGantt(t *testing.T) {
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 1, Size: 1},
	})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	out := RenderGantt(res, segs, 30)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 3 { // header + 2 job rows
		t.Fatalf("gantt lines: %d\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "█") {
		t.Fatalf("job 0 should show full-rate glyphs early:\n%s", out)
	}
	if RenderGantt(&Result{}, nil, 30) != "(empty schedule)\n" {
		t.Fatal("empty render")
	}
}

// TestFractionalAgeMomentK1EqualsFractionalFlow: the k=1 age moment equals
// the total fractional flow (integration by parts), segment-exactly.
func TestFractionalAgeMomentK1EqualsFractionalFlow(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 16))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 2+rng.IntN(20))
		opts := Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, opts)
			moment, err := FractionalAgeMoment(res, segs, 1)
			if err != nil {
				t.Fatal(err)
			}
			ff, err := FractionalFlows(res, segs)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, f := range ff {
				sum += f
			}
			if d := moment - sum; d > 1e-6*(1+sum) || d < -1e-6*(1+sum) {
				t.Fatalf("trial %d %s: moment %v vs Σ fractional flows %v", trial, p.Name(), moment, sum)
			}
		}
	}
}

// TestFractionalAgeMomentBelowIntegral: the k-th age moment never exceeds
// Σ F^k (every unit is processed at age ≤ F).
func TestFractionalAgeMomentBelowIntegral(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 18))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 2+rng.IntN(15))
		res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
		for _, k := range []int{1, 2, 3} {
			moment, err := FractionalAgeMoment(res, segs, k)
			if err != nil {
				t.Fatal(err)
			}
			var integral float64
			for _, f := range res.Flow {
				integral += pow1(f, k)
			}
			if moment > integral*(1+1e-9) {
				t.Fatalf("trial %d k=%d: moment %v above integral %v", trial, k, moment, integral)
			}
		}
	}
}
