package core

import (
	"math/rand/v2"
	"testing"
)

func TestAssignSingleJob(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 2}})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	ms, err := AssignMachines(res, segs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || len(ms[0].Slices) == 0 {
		t.Fatalf("assignment: %+v", ms)
	}
	if err := ValidateAssignment(res, ms); err != nil {
		t.Fatal(err)
	}
}

func TestAssignWrapAround(t *testing.T) {
	// 3 equal jobs sharing 2 machines: rates 2/3 each force a McNaughton
	// wrap within every segment.
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0, Size: 2},
		{ID: 2, Release: 0, Size: 2},
	})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 2, Speed: 1})
	ms, err := AssignMachines(res, segs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateAssignment(res, ms); err != nil {
		t.Fatal(err)
	}
	// Both machines must carry work.
	if len(ms[0].Slices) == 0 || len(ms[1].Slices) == 0 {
		t.Fatalf("machines unused: %+v", ms)
	}
}

func TestAssignNeedsSegments(t *testing.T) {
	for _, row := range timelineRows(t) {
		ms, err := AssignMachines(row.res, row.segs)
		if (err != nil) != row.missing {
			t.Errorf("%s: AssignMachines error %v, want missing=%v", row.name, err, row.missing)
			continue
		}
		if err == nil {
			if err := ValidateAssignment(row.res, ms); err != nil {
				t.Errorf("%s: %v", row.name, err)
			}
		}
	}
}

// TestAssignRandomSchedules: every simulated rate profile must be
// realizable; validate the construction across policies, machine counts
// and speeds.
func TestAssignRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.IntN(25))
		opts := Options{Machines: 1 + rng.IntN(4), Speed: 0.5 + 2*rng.Float64()}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, opts)
			ms, err := AssignMachines(res, segs)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name(), err)
			}
			if len(ms) != opts.Machines {
				t.Fatalf("machine count %d, want %d", len(ms), opts.Machines)
			}
			if err := ValidateAssignment(res, ms); err != nil {
				t.Fatalf("trial %d %s (m=%d s=%.3g): %v", trial, p.Name(), opts.Machines, opts.Speed, err)
			}
		}
	}
}
