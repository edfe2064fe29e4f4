package rrnorm_test

import (
	"bytes"
	"compress/gzip"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// streamSource builds the synthetic streaming workload the budget and
// bounded-memory tests use: a load-0.9 Poisson/exponential stream on two
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
// pins the generators' equivalence.)
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
