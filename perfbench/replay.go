package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// replayMachines is trace-replay's machine count.
const replayMachines = 2

// replayKind is one op kind of trace-replay: a policy over one encoding.
type replayKind struct {
	name   string
	rr     bool
	pol    core.Policy
	format trace.Format
}

// replayKinds are trace-replay's op kinds, in round order.
func replayKinds() []replayKind {
	return []replayKind{
		{"RR/ndjson.gz", true, policy.NewRR(), trace.FormatNDJSON},
		{"RR/csv", true, policy.NewRR(), trace.FormatCSV},
		{"SRPT/ndjson.gz", false, policy.NewSRPT(), trace.FormatNDJSON},
		{"SRPT/csv", false, policy.NewSRPT(), trace.FormatCSV},
	}
}

// encodeTrace encodes jobs in format f, gzip-compressed when zip is set.
func encodeTrace(jobs []core.Job, f trace.Format, zip bool) ([]byte, error) {
	var buf bytes.Buffer
	if !zip {
		err := trace.Encode(&buf, jobs, f)
		return buf.Bytes(), err
	}
	zw := gzip.NewWriter(&buf)
	if err := trace.Encode(zw, jobs, f); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// replay streams one encoded trace through trace.MaybeGunzip →
// trace.NewDecoder → fast.RunStream with obs attached.
func replay(data []byte, k replayKind, obs core.Observer, ws *core.Workspace) (core.StreamResult, error) {
	r, err := trace.MaybeGunzip(bytes.NewReader(data))
	if err != nil {
		return core.StreamResult{}, err
	}
	dec := trace.NewDecoder(r, trace.DecodeOptions{Format: k.format})
	return fast.RunStream(dec, k.pol, core.Options{Machines: replayMachines, Speed: 1, Observer: obs}, ws)
}

// runTraceReplay drives trace-replay: a seeded Poisson trace encoded once
// as gzip NDJSON and once as plain CSV, replayed by RR and SRPT on two
// machines, round-robin over the four op kinds until --seconds have
// passed. A pass of the reference kernel runs between every two ops.
func runTraceReplay(cfg config, tr *tracer, hk *refKernel) (*report, error) {
	n := 200_000
	if cfg.smoke {
		n = 1_000
	}
	rep := newReport()
	kinds := replayKinds()
	var in *core.Instance
	var ndjson, csv []byte
	ws := core.NewWorkspace()
	sn := metrics.NewStreamNorm(1, 2, 3)
	var gen, enc time.Duration
	var genJobs, encJobs int
	err := setup(rep, hk, func() { in, ndjson, csv = nil, nil, nil }, func() error {
		t0 := time.Now()
		in = workload.PoissonLoad(stats.NewRNG(cfg.seed), n, replayMachines, 0.9, workload.ExpSizes{M: 1})
		gen += time.Since(t0)
		genJobs += n
		t0 = time.Now()
		var err error
		if ndjson, err = encodeTrace(in.Jobs, trace.FormatNDJSON, true); err != nil {
			return fmt.Errorf("encoding NDJSON: %w", err)
		}
		if csv, err = encodeTrace(in.Jobs, trace.FormatCSV, false); err != nil {
			return fmt.Errorf("encoding CSV: %w", err)
		}
		enc += time.Since(t0)
		encJobs += 2 * n
		// Warm the workspace for both policies on the cheaper CSV trace.
		for _, k := range []replayKind{kinds[1], kinds[3]} {
			if _, err := replay(traceOf(k, ndjson, csv), k, sn, ws); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.values["workload.gen_ns_per_job"] = float64(gen.Nanoseconds()) / float64(genJobs)
	rep.values["trace.encode_ns_per_job"] = float64(enc.Nanoseconds()) / float64(encJobs)
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	rep.info["op_mix"] = names
	rep.info["jobs_per_op"] = n
	rep.info["machines"] = replayMachines
	rep.info["ndjson_gz_bytes"] = len(ndjson)
	rep.info["csv_bytes"] = len(csv)

	type opRec struct {
		kind int
		out  runOut
	}
	var outs []opRec
	var rounds roundLog
	// Traced-run state: op id → kind, plain-op totals and rung totals.
	opKind := map[int]int{}
	var plainOps, tracedOps time.Duration
	var withObs, noObs, streamNoObs engineSums
	var drainAllocs uint64
	var drainJobs int
	var epochs, completions int64
	src := core.NewInstanceSource(in)

	mem := startMemDelta()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	op := 0
	// tracedOp is the traced run's op: spans around each call into a
	// layer, a reader shim around the gzip stream, a source shim around the
	// decoder and the counting shim around StreamNorm.
	tracedOp := func(i int, k replayKind, data []byte) error {
		opKind[op] = i
		sn.Reset()
		root := tr.begin("op", op, -1)
		s := tr.begin("trace.MaybeGunzip", op, root)
		r, err := trace.MaybeGunzip(bytes.NewReader(data))
		tr.end(s)
		if err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
		rd := &timedReader{r: r}
		s = tr.begin("trace.NewDecoder", op, root)
		dec := trace.NewDecoder(rd, trace.DecodeOptions{Format: k.format})
		tr.end(s)
		shimSrc, shimmed := wrapSource(dec)
		shimObs := &countingObserver{obs: sn}
		call := tr.begin("fast.RunStream", op, root)
		sum, err := fast.RunStream(shimmed, k.pol, core.Options{Machines: replayMachines, Speed: 1, Observer: shimObs}, ws)
		tr.end(call)
		decSpan := len(tr.spans)
		tr.addShim("trace.Decoder.Next", op, call, shimSrc.total, shimSrc.calls)
		readName := "trace.gunzip.Read"
		if k.format == trace.FormatCSV {
			readName = "trace.plain.Read"
		}
		tr.addShim(readName, op, decSpan, rd.total, rd.calls)
		tracedOps += tr.end(root)
		rep.attempted++
		op++
		if err != nil || sum.N != n {
			rep.fail("%s traced: replayed %d jobs, err %v", k.name, sum.N, err)
			return nil
		}
		outs = append(outs, opRec{i, runOut{normsOf(sn), sum.Makespan}})
		epochs += shimObs.epochs
		completions += shimObs.completions
		return nil
	}
	before, err := calibrate(hk)
	if err != nil {
		return nil, err
	}
	for round := 0; time.Now().Before(deadline); round++ {
		for i, k := range kinds {
			data := traceOf(k, ndjson, csv)
			// The traced run's traced op goes first on odd rounds and
			// second on even ones, so neither it nor the plain op always
			// finds the caches the other warmed.
			tracedFirst := tr != nil && round%2 == 1
			if tracedFirst {
				if err := tracedOp(i, k, data); err != nil {
					return nil, err
				}
			}
			sn.Reset()
			t0 := time.Now()
			sum, err := replay(data, k, sn, ws)
			d := time.Since(t0)
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", k.name, err)
				continue
			}
			if sum.N != n {
				rep.fail("%s: replayed %d jobs, want %d", k.name, sum.N, n)
				continue
			}
			outs = append(outs, opRec{i, runOut{normsOf(sn), sum.Makespan}})
			after, err := calibrate(hk)
			if err != nil {
				return nil, err
			}
			rounds.op(k.rr, d, (before+after)/2, n)
			before = after
			if tr == nil {
				continue
			}
			plainOps += d
			if !tracedFirst {
				if err := tracedOp(i, k, data); err != nil {
					return nil, err
				}
			}

			// Rungs on the trace's own instance: StreamNorm on and off, and
			// the cursor over an InstanceSource against the materialized
			// slice. Each policy runs them once per round.
			if k.format == trace.FormatNDJSON {
				opts := core.Options{Machines: replayMachines, Speed: 1, Observer: sn}
				sn.Reset()
				s := tr.begin("rung.fast.RunWS-streamnorm", op, -1)
				_, err1 := fast.RunWS(in, k.pol, opts, ws)
				withObs.add(tr.end(s), n)
				opts.Observer = nil
				s = tr.begin("rung.fast.RunWS-noobserver", op, -1)
				_, err2 := fast.RunWS(in, k.pol, opts, ws)
				noObs.add(tr.end(s), n)
				src.Reset()
				s = tr.begin("rung.fast.RunStream-instancesource", op, -1)
				_, err3 := fast.RunStream(src, k.pol, opts, ws)
				streamNoObs.add(tr.end(s), n)
				if err := firstErr(err1, err2, err3); err != nil {
					return nil, fmt.Errorf("%s rungs: %w", k.name, err)
				}
				op++
			}
			// Decode-only drain of the trace, for allocations per job; each
			// format drains once per round.
			if k.rr {
				r, err := trace.MaybeGunzip(bytes.NewReader(data))
				if err != nil {
					return nil, fmt.Errorf("%s drain: %w", k.name, err)
				}
				s := tr.begin("rung.trace.Decoder-drain", op, -1)
				m0 := mallocs()
				dec := trace.NewDecoder(r, trace.DecodeOptions{Format: k.format})
				cnt := 0
				for {
					_, ok, err := dec.Next()
					if err != nil {
						return nil, fmt.Errorf("%s drain: %w", k.name, err)
					}
					if !ok {
						break
					}
					cnt++
				}
				tr.end(s)
				drainAllocs += mallocs() - m0
				drainJobs += cnt
				op++
			}
		}
		rounds.endRound()
	}
	mem.record(rep)
	if len(outs) == 0 {
		return nil, errNoOps
	}

	// Check every op against a materialized run of the instance the trace
	// was encoded from, computed after the timed phase.
	refs := make([]*runOut, len(kinds))
	for _, o := range outs {
		if refs[o.kind] == nil {
			ref := metrics.NewStreamNorm(1, 2, 3)
			res, err := fast.RunWS(in, kinds[o.kind].pol, core.Options{Machines: replayMachines, Speed: 1, Observer: ref}, core.NewWorkspace())
			if err != nil {
				return nil, fmt.Errorf("%s reference: %w", kinds[o.kind].name, err)
			}
			refs[o.kind] = &runOut{normsOf(ref), res.Makespan()}
		}
		if !o.out.equal(*refs[o.kind]) {
			rep.fail("%s: got %v, materialized reference %v", kinds[o.kind].name, o.out, *refs[o.kind])
		}
	}

	if tr == nil {
		rounds.report(rep)
		return rep, nil
	}
	isFormat := func(f trace.Format) func(int) bool {
		return func(op int) bool { k, ok := opKind[op]; return ok && kinds[k].format == f }
	}
	perJob := func(d time.Duration, jobs int) float64 {
		if jobs == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(jobs)
	}
	nd, _ := tr.total("trace.gunzip.Read", nil)
	_, ndDecOps := tr.total("fast.RunStream", isFormat(trace.FormatNDJSON))
	_, csvDecOps := tr.total("fast.RunStream", isFormat(trace.FormatCSV))
	rep.values["trace.gunzip_ns_per_job"] = perJob(nd, int(ndDecOps)*n)
	rep.values["trace.ndjson_ns_per_job"] = perJob(tr.self("trace.Decoder.Next", isFormat(trace.FormatNDJSON)), int(ndDecOps)*n)
	rep.values["trace.csv_ns_per_job"] = perJob(tr.self("trace.Decoder.Next", isFormat(trace.FormatCSV)), int(csvDecOps)*n)
	snPerJob := perJob(withObs.d-noObs.d, noObs.jobs)
	rep.values["metrics.streamnorm_ns_per_job"] = snPerJob
	rep.values["core.cursor_ns_per_job"] = perJob(streamNoObs.d-noObs.d, noObs.jobs)
	streamOps := int(ndDecOps + csvDecOps)
	rep.values["fast.stream_ns_per_job"] = perJob(tr.self("fast.RunStream", nil), streamOps*n) - snPerJob
	rep.values["fast.epochs_per_job"] = float64(epochs) / float64(completions)
	rep.values["trace.allocs_per_job"] = float64(drainAllocs) / float64(drainJobs)
	rep.values["tracing.overhead_pct"] = 100 * float64(tracedOps-plainOps) / float64(plainOps)
	opTotal, _ := tr.total("op", nil)
	rep.values["bench.unaccounted_share"] = float64(tr.self("op", nil)) / float64(opTotal)
	rep.info["traced_ops"] = streamOps
	return rep, nil
}

// traceOf returns the encoded trace an op kind replays.
func traceOf(k replayKind, ndjson, csv []byte) []byte {
	if k.format == trace.FormatCSV {
		return csv
	}
	return ndjson
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
