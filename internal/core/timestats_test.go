package core

import (
	"math/rand/v2"
	"testing"
)

func TestTimeStatsSimple(t *testing.T) {
	// Two unit jobs back to back with a gap: [0,1] job 0, [5,6] job 1.
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 5, Size: 1}})
	ts := ComputeTimeStats(mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1}))
	approx(t, ts.Start, 0, 1e-12, "start")
	approx(t, ts.End, 6, 1e-9, "end")
	approx(t, ts.BusyTime, 2, 1e-9, "busy time")
	if ts.BusyPeriods != 2 {
		t.Fatalf("busy periods %d, want 2", ts.BusyPeriods)
	}
	approx(t, ts.AvgAlive, 2.0/6.0, 1e-9, "avg alive")
	if ts.MaxAlive != 1 {
		t.Fatalf("max alive %d", ts.MaxAlive)
	}
	approx(t, ts.Utilization, 2.0/6.0, 1e-9, "utilization")
	approx(t, ts.OverloadedTime, 2, 1e-9, "overloaded (m=1: any alive)")
}

func TestTimeStatsEmpty(t *testing.T) {
	ts := ComputeTimeStats(mustRecord(t, NewInstance(nil), eqPolicy{}, Options{Machines: 1, Speed: 1}))
	if ts.BusyPeriods != 0 || ts.AvgAlive != 0 {
		t.Fatalf("empty stats: %+v", ts)
	}
}

// TestLittlesLaw: L = λ·W with L the time-average alive count over the
// schedule horizon, λ = n/horizon and W the mean flow — an exact identity
// for any schedule when measured over the full horizon (∫ n_t dt = Σ F_j).
func TestLittlesLaw(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 78))
	for trial := 0; trial < 20; trial++ {
		in := randomInstance(rng, 5+rng.IntN(40))
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, Options{Machines: 1 + rng.IntN(3), Speed: 1 + rng.Float64()})
			ts := ComputeTimeStats(res, segs)
			horizon := ts.End - ts.Start
			var sumFlow float64
			for _, f := range res.Flow {
				sumFlow += f
			}
			// ∫ n_t dt = Σ F_j exactly (up to idle-gap bookkeeping: jobs
			// are alive only within segments).
			lhs := ts.AvgAlive * horizon
			if d := lhs - sumFlow; d > 1e-6*(1+sumFlow) || d < -1e-6*(1+sumFlow) {
				t.Fatalf("trial %d %s: ∫n_t dt = %v, ΣF = %v", trial, p.Name(), lhs, sumFlow)
			}
		}
	}
}

// TestUtilizationWorkConservation: total consumed machine-time × speed
// equals total work for any completing schedule.
func TestUtilizationWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewPCG(79, 80))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 3+rng.IntN(30))
		m := 1 + rng.IntN(4)
		speed := 1 + 2*rng.Float64()
		ts := ComputeTimeStats(mustRecord(t, in, eqPolicy{}, Options{Machines: m, Speed: speed}))
		consumed := ts.Utilization * float64(m) * (ts.End - ts.Start) * speed
		if d := consumed - in.TotalWork(); d > 1e-6*(1+in.TotalWork()) || d < -1e-6*(1+in.TotalWork()) {
			t.Fatalf("trial %d: consumed %v, work %v", trial, consumed, in.TotalWork())
		}
	}
}
