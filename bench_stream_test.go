package rrnorm_test

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// streamBenchN is the committed-baseline replay size: ten million jobs.
// At this scale a materialized Instance alone is ~320 MB before the engine
// touches it; the streaming path must finish inside a peak RSS that never
// saw the jobs all at once.
const streamBenchN = 10_000_000

// streamBenchRSSLimit is the acceptance gate on the child process's
// Maxrss for the full streamBenchN run: far below the materialized
// footprint, far above what the alive set plus Go runtime need.
const streamBenchRSSLimit = 256 << 20

// streamSource builds the synthetic streaming workload both the budget
// test and the baseline use: a load-0.9 Poisson/exponential stream on two
// machines, drawn job by job, never materialized.
func streamSource(n int) *workload.StreamSource {
	return workload.StreamLoad(stats.NewRNG(11), n, 2, 0.9, workload.ExpSizes{M: 1})
}

// --- allocation budget (tier-1) ----------------------------------------------

// TestStreamAllocBudget pins the streaming path's allocation contract: a
// fast-engine RR run with a StreamNorm attached allocates nothing per job
// in steady state, whether it pulls from a synthetic StreamSource or
// decodes the same stream from an NDJSON or CSV trace through
// trace.NewDecoder, gzip-compressed or not — the whole replay pipeline. A
// run may pay only a small constant: constructing the one-shot source and
// the gzip reader, plus O(log n) appends growing the decoder's dense id
// bitset.
func TestStreamAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is disturbed by -short test interleavings")
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	p := policy.NewRR()
	ws := core.NewWorkspace()
	opts := core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: sn}
	measure := func(n int, opts core.Options, source func() core.JobSource) float64 {
		run := func() {
			sn.Reset()
			sum, err := fast.RunStream(source(), p, opts, ws)
			if err != nil {
				t.Fatal(err)
			}
			if sum.N != n {
				t.Fatalf("streamed %d jobs, want %d", sum.N, n)
			}
		}
		run() // warm-up: grows the alive-set buffers once
		return testing.AllocsPerRun(10, run)
	}
	synthetic := func(n int) float64 {
		return measure(n, opts, func() core.JobSource { return streamSource(n) })
	}
	// The synthetic source's constant (source + RNG internals) is all
	// there is: quadrupling n must not move the count, and the constant
	// stays single-digit.
	small, large := synthetic(50_000), synthetic(200_000)
	if large != small {
		t.Errorf("allocs/run grew with n: %v at 50k jobs vs %v at 200k — the per-job budget is 0", small, large)
	}
	if large > 8 {
		t.Errorf("%v allocs/run on the streaming path; the one-shot source setup should cost < 8", large)
	}

	// The reference engine's streaming mode holds the same constant, and
	// so do the other sources: a bootstrap-resampling FittedSource, and an
	// InstanceSource over a materialized slice.
	ref := opts
	ref.Engine = core.EngineReference
	if got := measure(50_000, ref, func() core.JobSource { return streamSource(50_000) }); got > 8 {
		t.Errorf("%v allocs/run on the reference engine's streaming path; the one-shot source setup should cost < 8", got)
	}
	fitted, err := workload.Fit(streamSource(10_000), 4096, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := measure(50_000, opts, func() core.JobSource { return fitted.Source(stats.NewRNG(5), 50_000) }); got > 8 {
		t.Errorf("%v allocs/run replaying a FittedSource; the one-shot source setup should cost < 8", got)
	}
	slice := workload.PoissonLoad(stats.NewRNG(11), 50_000, 2, 0.9, workload.ExpSizes{M: 1})
	if got := measure(50_000, opts, func() core.JobSource { return core.NewInstanceSource(slice) }); got > 8 {
		t.Errorf("%v allocs/run replaying an InstanceSource; the one-shot source setup should cost < 8", got)
	}

	// The decoder legs: the same 200k-job stream, materialized (see
	// TestStreamMatchesMaterialized) and encoded once per format.
	const n = 200_000
	in := workload.PoissonLoad(stats.NewRNG(11), n, 2, 0.9, workload.ExpSizes{M: 1})
	for _, f := range []trace.Format{trace.FormatNDJSON, trace.FormatCSV} {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, in.Jobs, f); err != nil {
			t.Fatal(err)
		}
		got := measure(n, opts, func() core.JobSource {
			return trace.NewDecoder(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{Format: f})
		})
		if got > 32 {
			t.Errorf("%v allocs/run replaying a %d-job %v trace; the decoder should cost a constant plus O(log n) bitset growth, ≤ 32", got, n, f)
		}
	}

	// The gzip leg: the NDJSON stream gzip-compressed, read through
	// trace.MaybeGunzip as rrsim -replay reads it. The gunzip layer
	// allocates only when its reader is built, so its share of the count —
	// the leg's allocs less the plain NDJSON leg's at the same n, which
	// carry the id bitset's O(log n) growth — must not move with n.
	var share [2]float64
	for i, m := range []int{50_000, n} {
		var plain, zipped bytes.Buffer
		if err := trace.Encode(&plain, in.Jobs[:m], trace.FormatNDJSON); err != nil {
			t.Fatal(err)
		}
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(plain.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		base := measure(m, opts, func() core.JobSource {
			return trace.NewDecoder(bytes.NewReader(plain.Bytes()), trace.DecodeOptions{})
		})
		got := measure(m, opts, func() core.JobSource {
			r, err := trace.MaybeGunzip(bytes.NewReader(zipped.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			return trace.NewDecoder(r, trace.DecodeOptions{})
		})
		if got > 32 {
			t.Errorf("%v allocs/run replaying a %d-job gzip NDJSON trace; gunzip should add a constant, ≤ 32 in all", got, m)
		}
		t.Logf("gzip NDJSON leg, n=%d: %v allocs/run (plain NDJSON %v)", m, got, base)
		share[i] = got - base
	}
	if share[0] != share[1] {
		t.Errorf("gunzip allocs/run grew with n: %v at 50k jobs vs %v at 200k — gunzip may allocate only when its reader is built", share[0], share[1])
	}
}

// TestStreamMatchesMaterialized anchors the synthetic stream to the
// materialized generator it mirrors: workload.StreamLoad draws the exact
// RNG sequence of workload.PoissonLoad, so the streamed run's norms must
// be bit-identical to a materialized run of the same seed. (The general
// streaming-vs-materialized identity is the internal/check wall; this
// pins the workload-level equivalence the baseline's numbers rest on.)
func TestStreamMatchesMaterialized(t *testing.T) {
	const n = 50_000
	p := policy.NewRR()
	sn := metrics.NewStreamNorm(1, 2, 3)
	if _, err := fast.RunStream(streamSource(n), p, core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: sn}, core.NewWorkspace()); err != nil {
		t.Fatal(err)
	}
	in := workload.PoissonLoad(stats.NewRNG(11), n, 2, 0.9, workload.ExpSizes{M: 1})
	mn := metrics.NewStreamNorm(1, 2, 3)
	if _, err := fast.Run(in, policy.NewRR(), core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: mn}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3} {
		if got, want := sn.Norm(k), mn.Norm(k); got != want {
			t.Errorf("ℓ%d: streamed %.17g != materialized %.17g", k, got, want)
		}
	}
}

// --- bounded-memory baseline (make bench-engine) -----------------------------

// streamChildEnv re-executes the test binary as a fresh child whose
// Maxrss is untouched by the rest of the suite — an in-process VmHWM
// reading would report the high-water mark of whichever earlier test was
// hungriest, not this run's.
const streamChildEnv = "RRNORM_STREAM_CHILD"

// TestStreamChildRun is the child's body: the full streamBenchN run,
// nothing else. It only executes under the env gate; as part of the
// normal suite it is a skip.
func TestStreamChildRun(t *testing.T) {
	if os.Getenv(streamChildEnv) == "" {
		t.Skip("child-process body for TestWriteStreamBenchBaseline")
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	sum, err := fast.RunStream(streamSource(streamBenchN), policy.NewRR(),
		core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: sn}, core.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if sum.N != streamBenchN || sn.N() != streamBenchN {
		t.Fatalf("streamed %d jobs (observer saw %d), want %d", sum.N, sn.N(), streamBenchN)
	}
	// Stamp the run's aggregates into the log for the parent to keep.
	out, err := json.Marshal(map[string]any{
		"n": sum.N, "events": sum.Events, "makespan": sum.Makespan,
		"l1": sn.Norm(1), "l2": sn.Norm(2), "l3": sn.Norm(3), "max_flow": sum.MaxFlow,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("STREAM_RESULT %s", out)
}

// streamBenchBaseline is the schema of BENCH_stream.json.
type streamBenchBaseline struct {
	GoMaxProc int `json:"gomaxprocs"`
	N         int `json:"n"`
	Machines  int `json:"machines"`
	// ChildMaxRSSBytes is the streaming child process's ru_maxrss: the
	// peak physical memory of decoding-free replay at n=1e7. The gate
	// below pins it under streamBenchRSSLimit.
	ChildMaxRSSBytes int64   `json:"child_max_rss_bytes"`
	RSSLimitBytes    int64   `json:"rss_limit_bytes"`
	WallSeconds      float64 `json:"wall_seconds"`
	NsPerJob         float64 `json:"ns_per_job"`
	// MaterializedBytesEst is 32 bytes/job × n — what an Instance of the
	// same trace would occupy before simulation even starts, for scale.
	MaterializedBytesEst int64 `json:"materialized_bytes_estimate"`
}

// TestWriteStreamBenchBaseline rewrites BENCH_stream.json: the
// bounded-memory claim behind the streaming JobSource path, measured the
// only honest way — a child process whose Maxrss covers exactly one
// ten-million-job streaming run. Gated behind WRITE_BENCH=1
// (`make bench-engine`); the RSS gate fails the writer if the streaming
// path ever starts buffering the trace.
func TestWriteStreamBenchBaseline(t *testing.T) {
	if os.Getenv("WRITE_BENCH") == "" {
		t.Skip("set WRITE_BENCH=1 to rewrite BENCH_stream.json")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^TestStreamChildRun$", "-test.v")
	cmd.Env = append(os.Environ(), streamChildEnv+"=1", "WRITE_BENCH=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stream child failed: %v\n%s", err, out)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		t.Fatal("no rusage from child process")
	}
	maxRSS := ru.Maxrss * 1024 // ru_maxrss is KB on Linux
	wall := cmd.ProcessState.SystemTime() + cmd.ProcessState.UserTime()
	base := streamBenchBaseline{
		GoMaxProc:            runtime.GOMAXPROCS(0),
		N:                    streamBenchN,
		Machines:             2,
		ChildMaxRSSBytes:     maxRSS,
		RSSLimitBytes:        streamBenchRSSLimit,
		WallSeconds:          wall.Seconds(),
		NsPerJob:             float64(wall.Nanoseconds()) / float64(streamBenchN),
		MaterializedBytesEst: int64(streamBenchN) * 32,
	}
	t.Logf("child: %d jobs, peak RSS %.1f MB (limit %.0f MB), %.1fs CPU, %.0f ns/job",
		streamBenchN, float64(maxRSS)/1e6, float64(streamBenchRSSLimit)/1e6, base.WallSeconds, base.NsPerJob)
	if maxRSS > streamBenchRSSLimit {
		t.Errorf("child peak RSS %d bytes exceeds the %d-byte bounded-memory gate", maxRSS, streamBenchRSSLimit)
	}
	buf, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile("BENCH_stream.json", buf, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Log("wrote BENCH_stream.json")
}
