package rrnorm_test

import (
	"io"
	"math"
	"runtime"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// observeInstance is the observer tests' workload: n jobs at load 0.9 on
// four machines.
func observeInstance(n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(3), n, 4, 0.9, workload.ExpSizes{M: 1})
}

// --- acceptance: a million-job run without Segments --------------------------

// TestStreamNormMillionJobs is the streaming-pipeline acceptance test: an
// n=1e6 RR run with a StreamNorm attached completes on the fast engine
// with no Segment timeline recorded (at this size a SegmentRecorder holds
// hundreds of MB live), and its ℓ1/ℓ2/ℓ3 agree with the
// Flow-derived reference (metrics.LkNorm — the exact post-processing the
// Segment-pipeline consumers computed) at 1e-6. Agreement with the Segment
// timeline itself is pinned separately by the 1200-seed differential test
// in internal/check, where recording is affordable.
func TestStreamNormMillionJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-job run is too slow for -short")
	}
	in := observeInstance(1_000_000)
	sn := metrics.NewStreamNorm(1, 2, 3)
	res, err := fast.Run(in, policy.NewRR(), core.Options{Machines: 4, Speed: 1, Observer: sn})
	if err != nil {
		t.Fatal(err)
	}
	if sn.N() != in.N() {
		t.Fatalf("StreamNorm saw %d completions, want %d", sn.N(), in.N())
	}
	for _, k := range []int{1, 2, 3} {
		want := metrics.LkNorm(res.Flow, k)
		got := sn.Norm(k)
		if rel := math.Abs(got-want) / (1 + math.Abs(want)); rel > 1e-6 {
			t.Errorf("L%d: stream %.17g vs batch %.17g (rel %.3g)", k, got, want, rel)
		}
	}
}

// --- allocation budget (CI bench smoke) --------------------------------------

// TestObserverAllocBudget extends the workspace allocation budget to runs
// with observers attached: a reused StreamNorm+Timeline fan-out must keep
// the steady state at zero heap allocations per run on both engines. The
// no-observer budget is TestEngineAllocBudget; together they pin the two
// halves of the PR-4/PR-5 contract — observer dispatch costs nothing when
// absent and allocates nothing when present.
func TestObserverAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is disturbed by -short test interleavings")
	}
	in := workload.PoissonLoad(stats.NewRNG(7), 2000, 2, 0.9, workload.ExpSizes{M: 1})
	sn := metrics.NewStreamNorm(1, 2, 3)
	tl := stats.NewTimelineObserver(2)
	obs := core.Multi(sn, tl)
	p := policy.NewRR()
	for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
		t.Run(eng.String(), func(t *testing.T) {
			ws := core.NewWorkspace()
			opts := core.Options{Machines: 2, Speed: 1, Engine: eng, Observer: obs}
			run := func() {
				sn.Reset()
				tl.Reset()
				if _, err := fast.RunWS(in, p, opts, ws); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grows buffers, attaches scratch
			if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
				t.Errorf("%v: %v allocs/run with observers attached, want 0", eng, allocs)
			}
		})
	}

	// AgeMomentObserver reads per-job epochs, so it routes every engine
	// choice to the reference loop: EngineReference directly, EngineAuto
	// through the fast engine's dispatcher and its fallback.
	am := core.NewAgeMomentObserver(2, 1)
	for _, eng := range []core.EngineKind{core.EngineReference, core.EngineAuto} {
		t.Run("age-moment/"+eng.String(), func(t *testing.T) {
			ws := core.NewWorkspace()
			opts := core.Options{Machines: 2, Speed: 1, Engine: eng, Observer: am}
			run := func() {
				if _, err := fast.RunWS(in, p, opts, ws); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs := testing.AllocsPerRun(10, run); allocs > 0 {
				t.Errorf("%v: %v allocs/run with AgeMomentObserver attached, want 0", eng, allocs)
			}
		})
	}

	// Observers whose output is their allocation hold a stated budget
	// instead of 0: allocs/run ≤ perJob·n + fixed, with a fresh observer
	// per run (EngineAuto, so the fast path runs where it is eligible).
	n := float64(in.N())
	budgeted := []struct {
		name          string
		obs           func() core.Observer
		perJob, fixed float64 // the budget
		why           string
	}{
		{"trace", func() core.Observer { return trace.NewObserver(io.Discard) }, 12, 64,
			"encoding/json boxes one record per arrival, completion and epoch (RR has at most two epochs per job), " +
				"and its pooled encoder state, which the race detector drains at random, can cost two more per record"},
		{"segments", func() core.Observer { return &core.SegmentRecorder{} }, 4, 64,
			"each recorded Segment owns copies of its job and rate slices: two per epoch"},
		{"witness", func() core.Observer { w, _ := dual.NewWitnessObserver(2, 0.1, 2); return w }, 0, 128,
			"only the certificate and the O(log n) growth of the fresh observer's per-job arrays"},
		{"monitor", func() core.Observer { return hunt.NewStreamMonitor(2, 1) }, 0, 128,
			"only the O(log n) growth of the fresh monitor's per-job arrays; anomaly messages format only when an invariant breaks"},
	}
	for _, b := range budgeted {
		t.Run(b.name, func(t *testing.T) {
			ws := core.NewWorkspace()
			run := func() {
				opts := core.Options{Machines: 2, Speed: 1, Observer: b.obs()}
				if _, err := fast.RunWS(in, p, opts, ws); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if allocs, budget := testing.AllocsPerRun(5, run), b.perJob*n+b.fixed; allocs > budget {
				t.Errorf("%v allocs/run at n=%v, budget %v: %s", allocs, n, budget, b.why)
			}
		})
	}
}

// --- observers vs a recorded timeline ----------------------------------------

// segmentsN is the size TestSegmentsChurn and BenchmarkObserverVsSegments
// run at.
const segmentsN = 100_000

// TestSegmentsChurn pins the memory claim behind the streaming observer
// pipeline: with a StreamNorm attached, a steady run allocates nothing on
// either engine, while a SegmentRecorder (which runs on the reference
// engine) churns at least 10× the heap the observer path does there. The
// observer path churns zero bytes, so its side of the ratio is clamped to
// 1 MiB.
func TestSegmentsChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("records Segments for 10⁵ jobs; skipped under -short")
	}
	in := observeInstance(segmentsN)
	p := policy.NewRR()
	// steady warms a workspace with one run of opts, then returns the heap
	// bytes one more run allocates, and the run; reset precedes each run.
	steady := func(opts core.Options, reset func()) (uint64, func()) {
		ws := core.NewWorkspace()
		run := func() {
			reset()
			if _, err := fast.RunWS(in, p, opts, ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, run
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	var observed uint64
	for _, eng := range []core.EngineKind{core.EngineFast, core.EngineReference} {
		bytes, run := steady(core.Options{Machines: 4, Speed: 1, Engine: eng, Observer: sn}, sn.Reset)
		if allocs := testing.AllocsPerRun(3, run); allocs > 0 {
			t.Errorf("observer/%v: %v allocs/run in steady state, want none", eng, allocs)
		}
		if eng == core.EngineReference {
			observed = bytes
		}
	}
	rec := &core.SegmentRecorder{}
	recorded, _ := steady(core.Options{Machines: 4, Speed: 1, Observer: rec}, func() { rec.Segments = nil })
	segments := len(rec.Segments)
	ratio := float64(recorded) / math.Max(1<<20, float64(observed))
	t.Logf("n=%d: recording %d Segments churns %.1f MB, the observer path %d B on the same engine: %.0fx",
		segmentsN, segments, float64(recorded)/1e6, observed, ratio)
	if ratio < 10 {
		t.Errorf("recording Segments churns only %.1fx the observer path's heap, want ≥10x", ratio)
	}
}

// benchObservePath times one run configuration with workspace reuse.
func benchObservePath(b *testing.B, in *core.Instance, opts core.Options, reset func()) {
	b.Helper()
	ws := core.NewWorkspace()
	p := policy.NewRR()
	run := func() {
		if reset != nil {
			reset()
		}
		if _, err := fast.RunWS(in, p, opts, ws); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm-up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// BenchmarkObserverVsSegments times the streaming observer pipeline
// against a SegmentRecorder at n=10⁵. The segments leg necessarily runs
// the reference engine — the recorder forces it — so observer/reference is
// the apples-to-apples comparison and observer/fast is the full fast-path
// win.
func BenchmarkObserverVsSegments(b *testing.B) {
	in := observeInstance(segmentsN)
	rec := &core.SegmentRecorder{}
	b.Run("segments/reference", func(b *testing.B) {
		benchObservePath(b, in, core.Options{Machines: 4, Speed: 1, Observer: rec}, func() { rec.Segments = nil })
	})
	sn := metrics.NewStreamNorm(1, 2, 3)
	b.Run("observer/reference", func(b *testing.B) {
		benchObservePath(b, in,
			core.Options{Machines: 4, Speed: 1, Engine: core.EngineReference, Observer: sn},
			sn.Reset)
	})
	b.Run("observer/fast", func(b *testing.B) {
		benchObservePath(b, in,
			core.Options{Machines: 4, Speed: 1, Engine: core.EngineFast, Observer: sn},
			sn.Reset)
	})
}
