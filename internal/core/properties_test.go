package core

import (
	"math/rand/v2"
	"testing"
)

// TestEngineDeterminism: identical inputs must give bit-identical results.
func TestEngineDeterminism(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	in := randomInstance(rng, 40)
	opts := Options{Machines: 2, Speed: 1.7}
	a, aSegs := mustRecord(t, in, eqPolicy{}, opts)
	b, bSegs := mustRecord(t, in, eqPolicy{}, opts)
	for i := range a.Completion {
		if a.Completion[i] != b.Completion[i] {
			t.Fatalf("completion %d differs: %v vs %v", i, a.Completion[i], b.Completion[i])
		}
	}
	if len(aSegs) != len(bSegs) {
		t.Fatalf("segment counts differ: %d vs %d", len(aSegs), len(bSegs))
	}
}

// TestReferenceScheduleInvariants: on random instances the reference
// engine's recorded schedule must pass full validation (chronological
// segments, rates in [0,1], Σrates ≤ m, work conservation: integrated
// rate×speed equals each job's size) and must be non-idling — whenever k
// jobs are alive the schedule runs at total rate min(k, m).
func TestReferenceScheduleInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 102))
	for trial := 0; trial < 10; trial++ {
		in := randomInstance(rng, 5+rng.IntN(25))
		m := 1 + rng.IntN(3)
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, Options{Machines: m, Speed: 1 + rng.Float64()})
			if err := ValidateResult(res, segs); err != nil {
				t.Fatalf("trial %d %s: %v", trial, p.Name(), err)
			}
			for si := range segs {
				seg := &segs[si]
				if seg.Duration() == 0 {
					continue
				}
				sum := 0.0
				for _, r := range seg.Rates {
					sum += r
				}
				want := float64(min(len(seg.Jobs), m))
				if sum < want-1e-6 {
					t.Fatalf("trial %d %s: idling segment %d: %d alive on m=%d but total rate %v",
						trial, p.Name(), si, len(seg.Jobs), m, sum)
				}
			}
		}
	}
}

// TestRRMonotoneInJobs: adding a job to an RR instance can only delay the
// original jobs (equal sharing means extra competitors never speed anyone
// up).
func TestRRMonotoneInJobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.IntN(15)
		in := randomInstance(rng, n)
		base := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
		// Insert one extra job at a random time.
		extra := Job{ID: 10_000, Release: rng.Float64() * in.MaxRelease(), Size: 0.2 + rng.Float64()*3}
		bigger := NewInstance(append(append([]Job(nil), in.Jobs...), extra))
		after := mustRun(t, bigger, eqPolicy{}, Options{Machines: 1, Speed: 1})
		afterByID := after.FlowByID()
		for i, j := range base.Jobs {
			if afterByID[j.ID] < base.Flow[i]-1e-9 {
				t.Fatalf("trial %d: job %d sped up from %v to %v after adding a job",
					trial, j.ID, base.Flow[i], afterByID[j.ID])
			}
		}
	}
}

// TestSpeedMonotone: raising the speed cannot increase any RR completion
// time (RR's rates are oblivious, so progress scales pointwise).
func TestSpeedMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 96))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 3+rng.IntN(20))
		slow := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
		fast := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1.5})
		for i := range slow.Completion {
			if fast.Completion[i] > slow.Completion[i]+1e-9 {
				t.Fatalf("trial %d: job %d later at higher speed (%v vs %v)",
					trial, i, fast.Completion[i], slow.Completion[i])
			}
		}
	}
}

// TestMachinesMonotoneForRR: more machines cannot hurt any job under RR
// (shares min{1, m/n} are pointwise non-decreasing in m).
func TestMachinesMonotoneForRR(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 98))
	for trial := 0; trial < 15; trial++ {
		in := randomInstance(rng, 3+rng.IntN(20))
		one := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
		four := mustRun(t, in, eqPolicy{}, Options{Machines: 4, Speed: 1})
		for i := range one.Completion {
			if four.Completion[i] > one.Completion[i]+1e-9 {
				t.Fatalf("trial %d: job %d later with more machines", trial, i)
			}
		}
	}
}
