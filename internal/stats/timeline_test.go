package stats_test

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

func timelineInstance(seed uint64, n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(seed), n, 2, 0.95, workload.ExpSizes{M: 1})
}

// TestTimelineObserverMatchesComputeTimeStats: on the reference engine the
// observer consumes exactly the intervals ComputeTimeStats reads from a
// SegmentRecorder's timeline, with the same arithmetic — the two must agree
// to the last bit.
func TestTimelineObserverMatchesComputeTimeStats(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		in := timelineInstance(seed, 400)
		o := stats.NewTimelineObserver(2)
		var rec core.SegmentRecorder
		res, err := core.Run(in, policy.NewRR(), core.Options{
			Machines: 2, Speed: 1, Observer: core.Multi(o, &rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		want := core.ComputeTimeStats(res, rec.Segments)
		got := o.Stats()
		if got != want {
			t.Fatalf("seed %d: observer %+v\n  != segment-derived %+v", seed, got, want)
		}
		if of := o.OverloadFraction(); math.Abs(of-want.OverloadedTime/(want.End-want.Start)) > 1e-15 {
			t.Fatalf("seed %d: OverloadFraction %v inconsistent with stats %+v", seed, of, want)
		}
	}
}

// TestTimelineObserverFastEngine: the fast paths emit aggregate-only
// epochs; time-averaged stats must agree with the reference engine's
// segment-derived values within the differential tolerance.
func TestTimelineObserverFastEngine(t *testing.T) {
	pols := []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS()}
	for _, p := range pols {
		in := timelineInstance(11, 500)
		var rec core.SegmentRecorder
		ref, err := core.Run(in, p, core.Options{Machines: 2, Speed: 1, Observer: &rec})
		if err != nil {
			t.Fatal(err)
		}
		want := core.ComputeTimeStats(ref, rec.Segments)

		o := stats.NewTimelineObserver(2)
		if _, err := fast.Run(in, p, core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: o}); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		got := o.Stats()
		close := func(a, b float64, what string) {
			t.Helper()
			if d := math.Abs(a - b); d > 1e-6*(1+math.Max(math.Abs(a), math.Abs(b))) {
				t.Errorf("%s: %s observer %v vs segments %v", p.Name(), what, a, b)
			}
		}
		close(got.Start, want.Start, "Start")
		close(got.End, want.End, "End")
		close(got.AvgAlive, want.AvgAlive, "AvgAlive")
		close(got.Utilization, want.Utilization, "Utilization")
		close(got.BusyTime, want.BusyTime, "BusyTime")
		close(got.OverloadedTime, want.OverloadedTime, "OverloadedTime")
		if got.MaxAlive != want.MaxAlive {
			t.Errorf("%s: MaxAlive %d vs %d", p.Name(), got.MaxAlive, want.MaxAlive)
		}
		if got.BusyPeriods != want.BusyPeriods {
			t.Errorf("%s: BusyPeriods %d vs %d", p.Name(), got.BusyPeriods, want.BusyPeriods)
		}
	}
}

func TestTimelineObserverTrajectory(t *testing.T) {
	in := core.NewInstance([]core.Job{
		{ID: 1, Release: 0, Size: 2},
		{ID: 2, Release: 1, Size: 2},
		{ID: 3, Release: 10, Size: 1},
	})
	o := stats.NewTimelineObserver(1)
	o.KeepTrajectory = true
	if _, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1, Observer: o}); err != nil {
		t.Fatal(err)
	}
	traj := o.Trajectory()
	if len(traj) == 0 {
		t.Fatal("no trajectory recorded")
	}
	// Consecutive points always change the alive count, and times ascend.
	for i := 1; i < len(traj); i++ {
		if traj[i].N == traj[i-1].N {
			t.Fatalf("trajectory %d repeats alive count %d", i, traj[i].N)
		}
		if traj[i].T < traj[i-1].T {
			t.Fatalf("trajectory times not ascending at %d", i)
		}
	}
	if traj[0].N != 1 {
		t.Fatalf("first point alive=%d, want 1", traj[0].N)
	}

	// Reset keeps the knobs and clears the data.
	o.Reset()
	if len(o.Trajectory()) != 0 || o.Stats() != (core.TimeStats{}) {
		t.Fatal("Reset did not clear")
	}
	if !o.KeepTrajectory || o.Machines != 1 {
		t.Fatal("Reset dropped configuration")
	}
}

func TestTimelineObserverEmpty(t *testing.T) {
	o := stats.NewTimelineObserver(1)
	if o.Stats() != (core.TimeStats{}) || o.OverloadFraction() != 0 {
		t.Fatal("unused observer must report zeroes")
	}
}
