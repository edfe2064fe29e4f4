package rrnorm_test

import (
	"context"
	"math"
	"slices"
	"testing"
	"time"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// --- allocation budget (tier-1 + CI bench smoke) -----------------------------

// TestEngineAllocBudget pins the engine hot path's allocation budget: after
// one warm-up run on a workspace, a simulation must perform zero heap
// allocations per run. This is the regression harness behind the workspace
// layer (DESIGN.md §12) — any closure that starts escaping, any buffer that
// stops being reused, shows up here as a hard failure, in `go test ./...`
// and in the CI bench smoke job alike.
//
// The reference rows range over the policy registry (plus Gittins and
// StaticPriority, which take constructor arguments), each on the three
// machine models of allocModels, so a newly registered policy is covered
// without editing this test. The fast rows cover the materialized RR and
// top-m drains on identical machines and RR's water-filling path on speeds
// {1, 3}; the sharded row covers the machine-sharded runner.
func TestEngineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is disturbed by -short test interleavings")
	}
	in := workload.PoissonLoad(stats.NewRNG(7), 2000, 2, 0.9, workload.ExpSizes{M: 1})
	for _, name := range append(policy.Names(), "GITTINS", "PRIO") {
		t.Run("reference/"+name, func(t *testing.T) {
			for _, mm := range allocModels {
				t.Run(mm.name, func(t *testing.T) {
					p := allocPolicy(t, name, in)
					opts := core.Options{Machines: 2, Speed: 1, Engine: core.EngineReference, MachineModel: mm.mm}
					requireZeroAllocs(t, in, p, opts)
				})
			}
		})
	}
	fastCases := []struct {
		name, policy string
		m            int
		mm           core.Machines
	}{
		{"RR", "RR", 2, core.Machines{}},
		{"SRPT", "SRPT", 2, core.Machines{}},
		{"SJF", "SJF", 2, core.Machines{}},
		{"FCFS", "FCFS", 2, core.Machines{}},
		{"PRIO", "PRIO", 2, core.Machines{}},
		// The heterogeneous RR fast path must hold the same budget: the
		// machine env and water-filling share table live on the workspace
		// scratch and are rebuilt allocation-free once warm.
		{"RR-hetero", "RR", 2, core.Machines{Speeds: []float64{1, 3}}},
		// RR and SRPT on one machine and on eight, at load 0.9 per machine.
		{"RR-m1", "RR", 1, core.Machines{}},
		{"RR-m8", "RR", 8, core.Machines{}},
		{"SRPT-m1", "SRPT", 1, core.Machines{}},
		{"SRPT-m8", "SRPT", 8, core.Machines{}},
	}
	for _, tc := range fastCases {
		t.Run("fast/"+tc.name, func(t *testing.T) {
			in := workload.PoissonLoad(stats.NewRNG(7), 2000, tc.m, 0.9, workload.ExpSizes{M: 1})
			p := allocPolicy(t, tc.policy, in)
			opts := core.Options{Machines: tc.m, Speed: 1, Engine: core.EngineFast, MachineModel: tc.mm}
			requireZeroAllocs(t, in, p, opts)
		})
	}
	// batch.RunSharded pays a per-call constant (worker workspaces, the
	// goroutines, one policy per shard) but nothing per job: its count
	// must not grow when n grows tenfold. scatterShard's merge is the
	// per-job part this row pins. Worker workspaces come from a sync.Pool,
	// which a garbage collection empties and the race detector drains at
	// random, and a fresh workspace costs a few allocations. So each size
	// keeps the least of three measurements, and the row allows growth
	// below one allocation per thousand added jobs (90 here), where one
	// allocation per job would add 90,000.
	t.Run("sharded/SRPT", func(t *testing.T) {
		const m = 4
		count := func(n int) float64 {
			in := workload.PoissonLoad(stats.NewRNG(7), n, m, 0.9, workload.ExpSizes{M: 1})
			ws := core.NewWorkspace()
			opts := core.Options{Machines: m, Speed: 1}
			run := func() {
				if _, err := batch.RunSharded(context.Background(), in, "SRPT", opts, 2, ws, nil); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grows the merged result and the pooled shard workspaces
			least := math.Inf(1)
			for range 3 {
				least = math.Min(least, testing.AllocsPerRun(10, run))
			}
			return least
		}
		small, large := count(10_000), count(100_000)
		t.Logf("RunSharded SRPT m=%d: %v allocs/run at n=10⁴, %v at n=10⁵", m, small, large)
		if large-small >= (100_000-10_000)/1000 {
			t.Errorf("RunSharded allocs/run grew with n: %v at n=10⁴ vs %v at n=10⁵ — the per-job budget is 0", small, large)
		}
	})
}

// allocModels are the machine models every reference-engine row of
// TestEngineAllocBudget runs on: the paper's identical machines, related
// machines (the RatesEnv path and its feasibility check) and a preemption
// cost (the per-alive charge column).
var allocModels = []struct {
	name string
	mm   core.Machines
}{
	{"identical", core.Machines{}},
	{"speeds-1-3", core.Machines{Speeds: []float64{1, 3}}},
	{"preempt-0.1", core.Machines{PreemptCost: 0.1}},
}

// allocPolicy builds a fresh policy for an allocation row: a registered
// name, or GITTINS (exp(1) sizes, matching the row's workload) or PRIO (a
// fixed scrambled priority per job of in).
func allocPolicy(t *testing.T, name string, in *core.Instance) core.Policy {
	t.Helper()
	switch name {
	case "GITTINS":
		return policy.NewGittins(func(x float64) float64 { return 1 - math.Exp(-x) }, 20, 1000)
	case "PRIO":
		prio := make(map[int]float64, in.N())
		for _, j := range in.Jobs {
			prio[j.ID] = float64((j.ID * 7919) % 1009)
		}
		return policy.NewStaticPriority(prio)
	}
	p, err := policy.New(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireZeroAllocs fails the test unless a run of p on in under opts,
// after one warm-up run on the same workspace, allocates nothing.
func requireZeroAllocs(t *testing.T, in *core.Instance, p core.Policy, opts core.Options) {
	t.Helper()
	ws := core.NewWorkspace()
	run := func() {
		if _, err := fast.RunWS(in, p, opts, ws); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: grows the buffers, attaches the engine scratch
	if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
		t.Errorf("%s: %v allocs/run in steady state, want 0", t.Name(), allocs)
	}
}

// --- bench-smoke ratchet -----------------------------------------------------

// alternateMedians returns the median wall times of reps calls each of a
// and b, after one untimed warm-up call of each. The timed calls
// alternate, so a slow spell on a shared host falls on both sides of a
// ratio, and the median drops single slow calls (allocator, frequency
// scaling, neighbours).
func alternateMedians(t *testing.T, reps int, a, b func() error) (time.Duration, time.Duration) {
	t.Helper()
	timed := func(run func() error) time.Duration {
		t0 := time.Now()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	timed(a)
	timed(b)
	ta, tb := make([]time.Duration, reps), make([]time.Duration, reps)
	for i := range reps {
		ta[i], tb[i] = timed(a), timed(b)
	}
	slices.Sort(ta)
	slices.Sort(tb)
	return ta[reps/2], tb[reps/2]
}

// engineInstance is the Poisson workload the engine gates time: n jobs with
// exp(1) sizes arriving at the given per-machine load on m machines.
func engineInstance(n, m int, load float64) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(1), n, m, load, workload.ExpSizes{M: 1})
}

// seedRatchetFloor is the ratchet's floor on the seed instance (n=10⁴, one
// machine, load 0.98): fast RR 25% faster than the seed commit's fast
// engine, in units of the in-tree reference engine's time on the same
// instance, so the bound needs no absolute time from one host. On a 2-vCPU
// Xeon KVM host, over 15 alternating `-benchtime` runs of
// BenchmarkEngineFastVsReference, the seed's fast RR read 2.45 ms at best
// and the reference engine 14.1 ms: 14.1 / (0.75 · 2.45) = 7.7. Best
// readings, because neighbours there slowed the reference engine twice as
// much as the seed's (spreads 14.1–19.9 against 2.45–2.91 ms).
const seedRatchetFloor = 7.7

// TestBenchSmokeRatchet is the CI performance ratchet for the fast engine
// (`make bench-smoke` runs it), as ratios to the reference per-epoch engine
// measured in the same run. At n=10⁶, fast RR must beat it by ≥2× on one
// identical machine, and by ≥1.5× on two machines of speeds {1, 3}, where
// it runs through the water-filling share table — a floor that still fails
// if that path falls back to per-step allocation or per-epoch work. On the
// seed instance, fast RR must beat it by seedRatchetFloor: the acceptance
// floor of ≥25% faster than the seed engine.
func TestBenchSmokeRatchet(t *testing.T) {
	if testing.Short() {
		t.Skip("ratchet times n=1e6 runs; skipped under -short")
	}
	ws := core.NewWorkspace()
	p := policy.NewRR()
	for _, c := range []struct {
		name  string
		n, m  int
		load  float64
		mm    core.Machines
		reps  int
		floor float64
	}{
		{"RR", 1_000_000, 1, 0.9, core.Machines{}, 3, 2.0},
		{"RR speeds=[1 3]", 1_000_000, 2, 0.9, core.Machines{Speeds: []float64{1, 3}}, 3, 1.5},
		{"RR seed instance", 10_000, 1, 0.98, core.Machines{}, 15, seedRatchetFloor},
	} {
		in := engineInstance(c.n, c.m, c.load)
		run := func(eng core.EngineKind) func() error {
			opts := core.Options{Machines: c.m, Speed: 1, Engine: eng, MachineModel: c.mm}
			return func() error { _, err := fast.RunWS(in, p, opts, ws); return err }
		}
		fastRun, reference := alternateMedians(t, c.reps, run(core.EngineFast), run(core.EngineReference))
		vsRef := float64(reference) / float64(fastRun)
		t.Logf("%s n=%d: fast %v, reference %v (%.2fx)", c.name, c.n, fastRun, reference, vsRef)
		if vsRef < c.floor {
			t.Errorf("fast %s n=%d is only %.2fx the reference per-epoch engine, ratchet floor is %.1fx",
				c.name, c.n, vsRef, c.floor)
		}
	}
}
