package rrnorm_test

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
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

// observeBenchN is the committed-baseline size: one million jobs, the scale
// at which a recorded Segment timeline stops being a reasonable data
// structure (hundreds of MB live) while the streaming observers stay O(1).
const observeBenchN = 1_000_000

func observeInstance(n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(3), n, 4, 0.9, workload.ExpSizes{M: 1})
}

// --- acceptance: a million-job run without Segments --------------------------

// TestStreamNormMillionJobs is the streaming-pipeline acceptance test: an
// n=1e6 RR run with a StreamNorm attached completes on the fast engine
// without materializing Segments, and its ℓ1/ℓ2/ℓ3 agree with the
// Flow-derived reference (metrics.LkNorm — the exact post-processing the
// Segment-pipeline consumers computed) at 1e-6. Agreement with the Segment
// timeline itself is pinned separately by the 1200-seed differential test
// in internal/check, where recording is affordable.
func TestStreamNormMillionJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("million-job run is too slow for -short")
	}
	in := observeInstance(observeBenchN)
	sn := metrics.NewStreamNorm(1, 2, 3)
	res, err := fast.Run(in, policy.NewRR(), core.Options{Machines: 4, Speed: 1, Observer: sn})
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != nil {
		t.Fatalf("run materialized %d Segments; the observer path must not record", len(res.Segments))
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
	// The record-segments row is the engine's own RecordSegments mode,
	// with no observer attached.
	n := float64(in.N())
	budgeted := []struct {
		name          string
		obs           func() core.Observer
		record        bool    // Options.RecordSegments
		perJob, fixed float64 // the budget
		why           string
	}{
		{"trace", func() core.Observer { return trace.NewObserver(io.Discard) }, false, 12, 64,
			"encoding/json boxes one record per arrival, completion and epoch (RR has at most two epochs per job), " +
				"and its pooled encoder state, which the race detector drains at random, can cost two more per record"},
		{"segments", func() core.Observer { return &core.SegmentRecorder{} }, false, 4, 64,
			"each recorded Segment owns copies of its job and rate slices: two per epoch"},
		{"record-segments", func() core.Observer { return nil }, true, 4, 64,
			"each recorded Segment owns copies of its job and rate slices: two per epoch"},
		{"gantt", func() core.Observer { return core.NewGanttObserver(80) }, false, 2, 64,
			"the chart keeps per-job accumulators and one bar run per epoch"},
		{"witness", func() core.Observer { w, _ := dual.NewWitnessObserver(2, 0.1, 2); return w }, false, 0, 128,
			"only the certificate and the O(log n) growth of the fresh observer's per-job arrays"},
		{"monitor", func() core.Observer { return hunt.NewStreamMonitor(2, 1) }, false, 0, 128,
			"only the O(log n) growth of the fresh monitor's per-job arrays; anomaly messages format only when an invariant breaks"},
	}
	for _, b := range budgeted {
		t.Run(b.name, func(t *testing.T) {
			ws := core.NewWorkspace()
			run := func() {
				opts := core.Options{Machines: 2, Speed: 1, Observer: b.obs(), RecordSegments: b.record}
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

// --- benchmark: observers vs RecordSegments ----------------------------------

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

// BenchmarkObserverVsSegments compares the streaming observer pipeline
// against Segment recording at n=1e5 (small enough for the 100x CI smoke
// pass; BENCH_observe.json holds the committed n=1e6 numbers). The
// segments leg necessarily runs the reference engine — recording forces
// it — so observer/reference is the apples-to-apples comparison and
// observer/fast is the full fast-path win.
func BenchmarkObserverVsSegments(b *testing.B) {
	in := observeInstance(100_000)
	b.Run("segments/reference", func(b *testing.B) {
		benchObservePath(b, in, core.Options{Machines: 4, Speed: 1, RecordSegments: true}, nil)
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

// --- committed baseline (make bench-engine) ----------------------------------

// observePath is one row of BENCH_observe.json: timing from a
// testing.Benchmark pass plus the memory story of a single run —
// TotalAlloc delta (GC-independent churn) and the process peak RSS
// (VmHWM) sampled right after the run.
type observePath struct {
	Engine          string  `json:"engine"`
	NsPerOp         float64 `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	RunAllocBytes   uint64  `json:"run_alloc_bytes"`
	PeakRSSBytes    uint64  `json:"peak_rss_bytes"`
	HeapInuseBytes  uint64  `json:"heap_inuse_after_bytes"`
	SegmentsPerRun  int     `json:"segments_per_run"`
	CompletionsSeen int     `json:"completions_seen"`
}

// observeBenchBaseline is the schema of BENCH_observe.json.
type observeBenchBaseline struct {
	Benchmark string `json:"benchmark"`
	GoMaxProc int    `json:"gomaxprocs"`
	N         int    `json:"n"`
	Machines  int    `json:"machines"`
	// Paths: bare (no observer, fast), observer_fast, observer_reference,
	// segments_reference — measured in that order so the monotone VmHWM
	// readings bound each path's own peak from below.
	Paths map[string]observePath `json:"paths"`
	// ObserverOverheadFast is observer_fast vs bare ns/op on the fast
	// engine: the marginal cost of streaming ℓk norms.
	ObserverOverheadFast float64 `json:"observer_overhead_fast"`
	// SegmentsAllocRatio is segments_reference vs observer_reference
	// run_alloc_bytes: how much heap churn Segment recording adds over the
	// streaming pipeline on the same engine. The observer path churns zero
	// bytes in steady state, so the denominator is clamped to 1 MiB to keep
	// the committed figure finite.
	SegmentsAllocRatio float64 `json:"segments_alloc_ratio"`
}

// peakRSSBytes reads the process high-water RSS (VmHWM) from
// /proc/self/status; 0 where unavailable. The reading is monotone over the
// process lifetime, so measure cheap paths before expensive ones.
func peakRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// measureObservePath benchmarks one configuration and takes the memory
// readings of a single additional run.
func measureObservePath(t *testing.T, in *core.Instance, opts core.Options, reset func()) observePath {
	t.Helper()
	ws := core.NewWorkspace()
	p := policy.NewRR()
	run := func(fail func(...any)) *core.Result {
		if reset != nil {
			reset()
		}
		res, err := fast.RunWS(in, p, opts, ws)
		if err != nil {
			fail(err)
		}
		return res
	}
	r := testing.Benchmark(func(b *testing.B) {
		run(b.Fatal) // warm-up
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b.Fatal)
		}
	})
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := run(t.Fatal)
	runtime.ReadMemStats(&after)
	return observePath{
		NsPerOp:         float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp:     r.AllocsPerOp(),
		BytesPerOp:      r.AllocedBytesPerOp(),
		RunAllocBytes:   after.TotalAlloc - before.TotalAlloc,
		PeakRSSBytes:    peakRSSBytes(),
		HeapInuseBytes:  after.HeapInuse,
		SegmentsPerRun:  len(res.Segments),
		CompletionsSeen: len(res.Flow),
	}
}

// TestWriteObserveBenchBaseline rewrites BENCH_observe.json: the n=1e6
// observers-vs-RecordSegments comparison behind the streaming pipeline's
// perf claim. Gated behind WRITE_BENCH=1 (`make bench-engine`) because the
// segments leg materializes the full million-job timeline on purpose. The
// writer enforces the acceptance gates — 0 allocs/op on both observer
// paths in steady state, and Segment recording churning at least 10× the
// observer path's heap — so the committed numbers cannot drift below what
// DESIGN.md §13 claims.
func TestWriteObserveBenchBaseline(t *testing.T) {
	if os.Getenv("WRITE_BENCH") == "" {
		t.Skip("set WRITE_BENCH=1 to rewrite BENCH_observe.json")
	}
	in := observeInstance(observeBenchN)
	base := observeBenchBaseline{
		Benchmark: "BenchmarkObserverVsSegments",
		GoMaxProc: runtime.GOMAXPROCS(0),
		N:         observeBenchN,
		Machines:  4,
		Paths:     map[string]observePath{},
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	type leg struct {
		name   string
		engine string
		opts   core.Options
		reset  func()
	}
	// Order matters: VmHWM is monotone, so the cheap paths go first.
	legs := []leg{
		{"bare", "fast", core.Options{Machines: 4, Speed: 1, Engine: core.EngineFast}, nil},
		{"observer_fast", "fast", core.Options{Machines: 4, Speed: 1, Engine: core.EngineFast, Observer: sn}, sn.Reset},
		{"observer_reference", "reference", core.Options{Machines: 4, Speed: 1, Engine: core.EngineReference, Observer: sn}, sn.Reset},
		{"segments_reference", "reference", core.Options{Machines: 4, Speed: 1, RecordSegments: true}, nil},
	}
	for _, l := range legs {
		p := measureObservePath(t, in, l.opts, l.reset)
		p.Engine = l.engine
		base.Paths[l.name] = p
		t.Logf("%s: %.0f ns/op, %d allocs/op, run churn %.1f MB, peak RSS %.1f MB, %d segments",
			l.name, p.NsPerOp, p.AllocsPerOp, float64(p.RunAllocBytes)/1e6, float64(p.PeakRSSBytes)/1e6, p.SegmentsPerRun)
		if strings.HasPrefix(l.name, "observer") || l.name == "bare" {
			if p.AllocsPerOp > 0 {
				t.Errorf("%s: %d allocs/op in steady state, budget is 0", l.name, p.AllocsPerOp)
			}
			if p.SegmentsPerRun != 0 {
				t.Errorf("%s: materialized %d Segments", l.name, p.SegmentsPerRun)
			}
		}
	}
	bare, of := base.Paths["bare"], base.Paths["observer_fast"]
	or, seg := base.Paths["observer_reference"], base.Paths["segments_reference"]
	base.ObserverOverheadFast = of.NsPerOp/bare.NsPerOp - 1
	base.SegmentsAllocRatio = float64(seg.RunAllocBytes) / math.Max(1<<20, float64(or.RunAllocBytes))
	t.Logf("observer overhead on fast engine: %.1f%%; segments heap churn ratio: %.0fx",
		base.ObserverOverheadFast*100, base.SegmentsAllocRatio)
	if base.SegmentsAllocRatio < 10 {
		t.Errorf("Segment recording churns only %.1fx the observer path's heap; the streaming claim needs ≥10x", base.SegmentsAllocRatio)
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_observe.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_observe.json")
}
