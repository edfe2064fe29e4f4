package main

import (
	"fmt"
	"math"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// enginePoint is one materialized run of engine-sweep: a policy on an
// instance under a machine model.
type enginePoint struct {
	name string
	rr   bool
	pol  core.Policy
	in   *core.Instance
	opts core.Options
}

// runOut is what an op's check compares: the ℓ1/ℓ2/ℓ3 bits and the
// makespan.
type runOut struct {
	norms    [3]float64
	makespan float64
}

func (o runOut) String() string {
	return fmt.Sprintf("l1=%v l2=%v l3=%v makespan=%v", o.norms[0], o.norms[1], o.norms[2], o.makespan)
}

func (o runOut) equal(p runOut) bool {
	return sameBits(o.norms[:], p.norms[:]) && math.Float64bits(o.makespan) == math.Float64bits(p.makespan)
}

func normsOf(sn *metrics.StreamNorm) [3]float64 {
	return [3]float64{sn.Norm(1), sn.Norm(2), sn.Norm(3)}
}

// enginePoints generates engine-sweep's instances: {RR, SRPT} × {m=1, m=8}
// × {Poisson load 0.9 with exp(1) sizes, bounded Pareto α=1.5 sizes}, plus
// RR on two machines of speeds 1 and 3 at load 0.9 of their capacity.
// Each instance has n jobs.
func enginePoints(seed uint64, n int) ([]*enginePoint, int) {
	type inst struct {
		name string
		m    int
		dist workload.SizeDist
	}
	insts := []inst{
		{"exp-m1", 1, workload.ExpSizes{M: 1}},
		{"exp-m8", 8, workload.ExpSizes{M: 1}},
		{"pareto-m1", 1, workload.ParetoSizes{Alpha: 1.5, Xm: 1}},
		{"pareto-m8", 8, workload.ParetoSizes{Alpha: 1.5, Xm: 1}},
	}
	var pts []*enginePoint
	for i, s := range insts {
		in := workload.PoissonLoad(stats.NewRNG(seed<<8|uint64(i)), n, s.m, 0.9, s.dist)
		opts := core.Options{Machines: s.m, Speed: 1}
		pts = append(pts,
			&enginePoint{name: "RR/" + s.name, rr: true, pol: policy.NewRR(), in: in, opts: opts},
			&enginePoint{name: "SRPT/" + s.name, pol: policy.NewSRPT(), in: in, opts: opts})
	}
	// Two machines of speeds 1 and 3: capacity 4, so the arrival rate of a
	// load-0.9 stream on four unit machines.
	hin := workload.PoissonLoad(stats.NewRNG(seed<<8|uint64(len(insts))), n, 4, 0.9, workload.ExpSizes{M: 1})
	hopts := core.Options{Machines: 2, Speed: 1, MachineModel: core.Machines{Speeds: []float64{1, 3}}}
	pts = append(pts, &enginePoint{name: "RR/exp-speeds1,3", rr: true, pol: policy.NewRR(), in: hin, opts: hopts})
	return pts, (len(insts) + 1) * n
}

// engineSums adds up one op kind's wall time and jobs.
type engineSums struct {
	d    time.Duration
	jobs int
}

func (s *engineSums) add(d time.Duration, jobs int) {
	s.d += d
	s.jobs += jobs
}

// opTimes adds up one op kind's time in ns, as measured and in
// reference-host time, and its jobs.
type opTimes struct {
	raw, norm float64
	jobs      int
}

// roundLog records a batch workload's ops, round by round; a round runs
// one op of every kind in order. Each op's time is divided by its host
// index, the mean of the kernel passes just before and just after it, so
// every figure here is in reference-host time.
type roundLog struct {
	rr, srpt opTimes
	ops      int
	// The current round's total and slowest op, in ns: raw and in
	// reference-host time.
	round, slowest [2]float64
	// Per round, in ms: total and slowest op, raw and in reference-host
	// time.
	ms, tail [2][]float64
}

func (l *roundLog) op(rr bool, d time.Duration, idx float64, jobs int) {
	raw := float64(d.Nanoseconds())
	t := &l.srpt
	if rr {
		t = &l.rr
	}
	t.raw += raw
	t.norm += raw / idx
	t.jobs += jobs
	l.ops++
	for i, v := range [2]float64{raw, raw / idx} {
		l.round[i] += v
		l.slowest[i] = max(l.slowest[i], v)
	}
}

func (l *roundLog) endRound() {
	for i := range 2 {
		l.ms[i] = append(l.ms[i], l.round[i]/1e6)
		l.tail[i] = append(l.tail[i], l.slowest[i]/1e6)
	}
	l.round, l.slowest = [2]float64{}, [2]float64{}
}

// report stores the end-to-end metrics. RR and SRPT ns/job are total time
// over total jobs of their ops. A round's latency is the time a user waits
// for the whole set, and its tail is its slowest op; each is a median over
// rounds, since a batch run holds too few ops for a p99, and a quantile
// set by the op count would let the program's own speed pick the op kind
// it reads. The raw figures go into the provenance.
func (l *roundLog) report(rep *report) {
	perJob := func(ns float64, jobs int) float64 {
		if jobs == 0 {
			return 0
		}
		return ns / float64(jobs)
	}
	rep.values["rr_ns_per_job"] = perJob(l.rr.norm, l.rr.jobs)
	rep.raw["rr_ns_per_job"] = perJob(l.rr.raw, l.rr.jobs)
	rep.values["srpt_ns_per_job"] = perJob(l.srpt.norm, l.srpt.jobs)
	rep.raw["srpt_ns_per_job"] = perJob(l.srpt.raw, l.srpt.jobs)
	rep.values["latency_p50_ms"] = median(l.ms[1])
	rep.raw["latency_p50_ms"] = median(l.ms[0])
	rep.values["latency_tail_ms"] = median(l.tail[1])
	rep.raw["latency_tail_ms"] = median(l.tail[0])
	rep.values["ops_per_s"] = float64(l.ops) / ((l.rr.norm + l.srpt.norm) / 1e9)
	rep.raw["ops_per_s"] = float64(l.ops) / ((l.rr.raw + l.srpt.raw) / 1e9)
	rep.info["rounds"] = len(l.ms[1])
	rep.info["ops"] = l.ops
	rep.info["round_ms"] = l.ms[1]
	rep.info["round_slowest_op_ms"] = l.tail[1]
}

// runEngineSweep drives engine-sweep: every point runs fast.RunWS under
// EngineAuto with metrics.StreamNorm(1,2,3) attached, on one goroutine and
// one reused workspace, round-robin until --seconds have passed. A pass of
// the reference kernel runs between every two ops.
func runEngineSweep(cfg config, tr *tracer, hk *refKernel) (*report, error) {
	n := 1_000_000
	if cfg.smoke {
		n = 2_000
	}
	rep := newReport()
	var pts []*enginePoint
	ws := core.NewWorkspace()
	sn := metrics.NewStreamNorm(1, 2, 3)
	var gen time.Duration
	var genJobs int
	err := setup(rep, hk, func() { pts = nil }, func() error {
		t0 := time.Now()
		p, jobs := enginePoints(cfg.seed, n)
		gen += time.Since(t0)
		genJobs += jobs
		pts = p
		// Warm the workspace with one n-job run per policy family, so its
		// buffers have grown before the timed phase.
		for _, pt := range []*enginePoint{pts[4], pts[5]} {
			opts := pt.opts
			opts.Observer = sn
			if _, err := fast.RunWS(pt.in, pt.pol, opts, ws); err != nil {
				return fmt.Errorf("%s: %w", pt.name, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.values["workload.gen_ns_per_job"] = float64(gen.Nanoseconds()) / float64(genJobs)
	names := make([]string, len(pts))
	for i, p := range pts {
		names[i] = p.name
	}
	rep.info["op_mix"] = names
	rep.info["jobs_per_op"] = n
	rep.info["engine"] = "auto"
	rep.info["observer"] = "metrics.StreamNorm(1,2,3)"

	type opRec struct {
		pt  int
		out runOut
	}
	var outs []opRec
	var rounds roundLog
	// Traced-run accumulators, per policy family: the traced RunWS, the
	// same run without an observer, and StartRun alone.
	var plain, traced, noObs, startRun [2]engineSums
	var epochs, completions, allocs, tracedOps int64
	var opWall, runWall time.Duration

	mem := startMemDelta()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	op := 0
	// tracedOp is the traced run's op: a span around RunWS, the counting
	// shim around StreamNorm, and the heap allocation count across the
	// call.
	tracedOp := func(i int, pt *enginePoint, fam int) {
		opts := pt.opts
		sn.Reset()
		shim := &countingObserver{obs: sn}
		opts.Observer = shim
		root := tr.begin("op", op, -1)
		call := tr.begin("fast.RunWS", op, root)
		m0 := mallocs()
		res, err := fast.RunWS(pt.in, pt.pol, opts, ws)
		allocs += int64(mallocs() - m0)
		dRun := tr.end(call)
		var out runOut
		if err == nil {
			out = runOut{normsOf(sn), res.Makespan()}
		}
		dOp := tr.end(root)
		rep.attempted++
		op++
		if err != nil {
			rep.fail("%s traced: %v", pt.name, err)
			return
		}
		outs = append(outs, opRec{i, out})
		traced[fam].add(dRun, pt.in.N())
		opWall += dOp
		runWall += dRun
		epochs += shim.epochs
		completions += shim.completions
		tracedOps++
	}
	before, err := calibrate(hk)
	if err != nil {
		return nil, err
	}
	for round := 0; time.Now().Before(deadline); round++ {
		for i, pt := range pts {
			fam := 1
			if pt.rr {
				fam = 0
			}
			// The traced run's traced op goes first on odd rounds and
			// second on even ones, so neither it nor the plain op always
			// finds the caches the other warmed.
			tracedFirst := tr != nil && round%2 == 1
			if tracedFirst {
				tracedOp(i, pt, fam)
			}
			opts := pt.opts
			sn.Reset()
			opts.Observer = sn
			t0 := time.Now()
			res, err := fast.RunWS(pt.in, pt.pol, opts, ws)
			d := time.Since(t0)
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", pt.name, err)
				continue
			}
			outs = append(outs, opRec{i, runOut{normsOf(sn), res.Makespan()}})
			after, err := calibrate(hk)
			if err != nil {
				return nil, err
			}
			rounds.op(pt.rr, d, (before+after)/2, pt.in.N())
			before = after
			if tr == nil {
				continue
			}
			plain[fam].add(d, pt.in.N())
			tr.spans = append(tr.spans, span{Name: "plain.fast.RunWS", Op: op, Parent: -1, Start: int64(t0.Sub(tr.t0)), End: int64(t0.Add(d).Sub(tr.t0)), Dur: int64(d), Calls: 1})
			op++
			if !tracedFirst {
				tracedOp(i, pt, fam)
			}

			// Rungs: the same run without an observer, and StartRun alone.
			opts.Observer = nil
			s := tr.begin("rung.fast.RunWS-noobserver", op, -1)
			_, err = fast.RunWS(pt.in, pt.pol, opts, ws)
			noObs[fam].add(tr.end(s), pt.in.N())
			if err != nil {
				return nil, fmt.Errorf("%s without observer: %w", pt.name, err)
			}
			op++
			s = tr.begin("core.Workspace.StartRun", op, -1)
			_, err = ws.StartRun(pt.in, pt.pol.Name(), opts)
			startRun[fam].add(tr.end(s), pt.in.N())
			if err != nil {
				return nil, fmt.Errorf("%s StartRun: %w", pt.name, err)
			}
			op++
		}
		rounds.endRound()
	}
	mem.record(rep)
	if len(outs) == 0 {
		return nil, errNoOps
	}

	// Check every op against a streaming run of the same instance,
	// computed after the timed phase on a workspace of its own.
	refWS := core.NewWorkspace()
	refs := make([]*runOut, len(pts))
	for _, o := range outs {
		if refs[o.pt] == nil {
			pt := pts[o.pt]
			ref := metrics.NewStreamNorm(1, 2, 3)
			opts := pt.opts
			opts.Observer = ref
			sum, err := fast.RunStream(core.NewInstanceSource(pt.in), pt.pol, opts, refWS)
			if err != nil {
				return nil, fmt.Errorf("%s reference: %w", pt.name, err)
			}
			refs[o.pt] = &runOut{normsOf(ref), sum.Makespan}
		}
		if !o.out.equal(*refs[o.pt]) {
			rep.fail("%s: got %v, streaming reference %v", pts[o.pt].name, o.out, *refs[o.pt])
		}
	}

	if tr == nil {
		rounds.report(rep)
		return rep, nil
	}
	// Per-layer numbers. StreamNorm's cost is the run with it minus the run
	// without it; a family's engine self time is its traced RunWS minus the
	// StartRun and StreamNorm rungs.
	var jobs int
	var snCost, srCost time.Duration
	for f := range 2 {
		jobs += plain[f].jobs
		snCost += plain[f].d - noObs[f].d
		srCost += startRun[f].d
	}
	rep.values["core.startrun_ns_per_job"] = float64(srCost.Nanoseconds()) / float64(jobs)
	rep.values["metrics.streamnorm_ns_per_job"] = float64(snCost.Nanoseconds()) / float64(jobs)
	engineSelf := func(f int) float64 {
		if traced[f].jobs == 0 {
			return 0
		}
		d := traced[f].d - startRun[f].d - (plain[f].d - noObs[f].d)
		return float64(d.Nanoseconds()) / float64(traced[f].jobs)
	}
	rep.values["fast.rr_ns_per_job"] = engineSelf(0)
	rep.values["fast.topm_ns_per_job"] = engineSelf(1)
	rep.values["fast.epochs_per_job"] = float64(epochs) / float64(completions)
	rep.values["fast.allocs_per_op"] = float64(allocs) / float64(tracedOps)
	plainAll := plain[0].d + plain[1].d
	tracedAll := traced[0].d + traced[1].d
	rep.values["tracing.overhead_pct"] = 100 * float64(tracedAll-plainAll) / float64(plainAll)
	rep.values["bench.unaccounted_share"] = float64(opWall-runWall) / float64(opWall)
	rep.info["traced_ops"] = tracedOps
	return rep, nil
}
