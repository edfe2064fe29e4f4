// Command rrsim simulates one scheduling policy (or all of them) on a
// workload and prints flow-time statistics — the quickest way to poke at
// the library.
//
// Examples:
//
//	rrsim -workload poisson:n=200,load=0.9,dist=exp -policy RR -speed 2
//	rrsim -workload cascade:levels=8 -policy all -k 2 -lb
//	rrsim -workload trace:path=jobs.csv -policy SRPT -m 4
//	rrsim -workload poisson:n=500,load=0.9 -policy RR -speeds 1,2,4 -preempt-cost 0.01
//	rrsim -replay jobs.ndjson -policy RR -m 4
//	rrsim -replay huge.ndjson.gz -policy SRPT
//
// -replay streams the trace through the engines' JobSource path: jobs are
// decoded lazily and never materialized, so memory is bounded by the
// schedule's alive set no matter how long the trace is. Flow statistics
// come from the streaming ℓk-norm observer instead of per-job arrays.
// gzip-compressed traces are detected by their magic bytes and
// decompressed on the fly — no gzip -dc pipe needed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/lp"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/polspec"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

func main() {
	var (
		spec    = flag.String("workload", "poisson:n=100,load=0.9,dist=exp,mean=1", "workload spec (see internal/workload.FromSpec)")
		polName = flag.String("policy", "RR", "policy spec (e.g. RR, LAPS:beta=0.3, GITTINS:dist=pareto) or 'all'")
		m       = flag.Int("m", 1, "number of machines (defaults to len(-speeds) when that is set)")
		speed   = flag.Float64("speed", 1, "resource-augmentation speed for the policy")
		speeds  = flag.String("speeds", "", "comma-separated per-machine relative speeds, e.g. 1,2,4 (empty: identical unit machines)")
		pCost   = flag.Float64("preempt-cost", 0, "extra work charged to a job each time it is preempted")
		k       = flag.Int("k", 2, "k for the ℓk-norm report and -lb ratio")
		seed    = flag.Uint64("seed", 1, "workload RNG seed")
		engine  = flag.String("engine", "auto", "simulation engine: auto, reference or fast")
		withLB  = flag.Bool("lb", false, "also compute the LP/2 lower bound and ratio")
		dump    = flag.String("dump", "", "write the generated workload as a CSV job trace to this path")
		resOut  = flag.String("resultout", "", "write the last policy's full result as JSON to this path")
		replay  = flag.String("replay", "", "replay a job trace file through the streaming path ('-' for stdin) instead of -workload")
		format  = flag.String("format", "ndjson", "trace format for -replay: ndjson or csv")
		sortRel = flag.Bool("sort", false, "buffer and sort an out-of-order -replay trace by release (costs O(n) memory)")
	)
	flag.Parse()

	eng, err := core.ParseEngineKind(*engine)
	if err != nil {
		fatal(err)
	}
	mm, err := machineModel(*speeds, *pCost, m)
	if err != nil {
		fatal(err)
	}

	if *replay != "" {
		if *withLB || *dump != "" || *resOut != "" {
			fatal(fmt.Errorf("-lb, -dump and -resultout need materialized results; they are incompatible with -replay"))
		}
		runReplay(*replay, *format, *sortRel, *polName, *m, *speed, mm, eng)
		return
	}

	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload: %s\n", workload.Describe(in))
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fatal(err)
		}
		if err := trace.Encode(f, in.Jobs, trace.FormatCSV); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("trace written to %s\n", *dump)
	}

	var lb lp.Bound
	if *withLB {
		lb, err = lp.KPowerLowerBound(in, *m, *k, lp.Options{})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("lower bound on OPT's ΣF^%d (unit speed): %.6g  [%s]\n", *k, lb.Value, lb.Method)
	}

	names := []string{*polName}
	if *polName == "all" {
		names = policy.Names()
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "policy\tmean\tL1\tL2\tL3\tmax\tp99\tjain")
	if *withLB {
		fmt.Fprintf(tw, "\tℓ%d-ratio", *k)
	}
	fmt.Fprintln(tw)
	var last *core.Result
	// -resultout writes the last run with its rate timeline, recorded by a
	// SegmentRecorder (which routes the runs to the reference engine).
	var rec *core.SegmentRecorder
	for _, name := range names {
		p, err := polspec.New(name)
		if err != nil {
			fatal(err)
		}
		opts := core.Options{Machines: *m, Speed: *speed, MachineModel: mm, Engine: eng}
		if *resOut != "" {
			rec = &core.SegmentRecorder{}
			opts.Observer = rec
		}
		res, err := fast.Run(in, p, opts)
		if err != nil {
			fatal(err)
		}
		last = res
		s := metrics.Summarize(res.Flow)
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.3f",
			name, s.MeanFlow, s.L1, s.L2, s.L3, s.MaxFlow, s.P99, s.Jain)
		if *withLB {
			ratio := math.Pow(metrics.KthPowerSum(res.Flow, *k)/lb.Value, 1/float64(*k))
			fmt.Fprintf(tw, "\t%.4g", ratio)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	if *resOut != "" && last != nil {
		f, err := os.Create(*resOut)
		if err != nil {
			fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", " ")
		doc := struct {
			*core.Result
			Segments []core.Segment
		}{last, rec.Segments}
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Printf("result JSON written to %s\n", *resOut)
	}
}

// runReplay streams the trace at path (or stdin for "-") through the
// engines' JobSource path, once per requested policy. The trace is decoded
// lazily and per-job flows fold into streaming ℓk-norms, so memory stays
// bounded by the alive set. "all" reopens the file per policy and is
// therefore rejected for stdin, which can only be read once.
func runReplay(path, formatName string, sortRel bool, polName string, m int, speed float64, mm core.Machines, eng core.EngineKind) {
	f, err := trace.ParseFormat(formatName)
	if err != nil {
		fatal(err)
	}
	names := []string{polName}
	if polName == "all" {
		if path == "-" {
			fatal(fmt.Errorf("-policy all replays the trace once per policy; it cannot be combined with stdin"))
		}
		names = policy.Names()
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\tn\tevents\tmakespan\tL1\tL2\tL3\tmax")
	ws := core.NewWorkspace()
	for _, name := range names {
		p, err := polspec.New(name)
		if err != nil {
			fatal(err)
		}
		var r io.Reader = os.Stdin
		if path != "-" {
			file, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			defer file.Close()
			r = file
		}
		r, err = trace.MaybeGunzip(r)
		if err != nil {
			fatal(fmt.Errorf("replay %s: %w", path, err))
		}
		dec := trace.NewDecoder(r, trace.DecodeOptions{Format: f, Sort: sortRel})
		sn := metrics.NewStreamNorm(1, 2, 3)
		sum, err := fast.RunStream(dec, p, core.Options{Machines: m, Speed: speed, MachineModel: mm, Engine: eng, Observer: sn}, ws)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(tw, "%s\t%d\t%d\t%.6g\t%.6g\t%.6g\t%.6g\t%.6g\n",
			name, sum.N, sum.Events, sum.Makespan, sn.Norm(1), sn.Norm(2), sn.Norm(3), sum.MaxFlow)
	}
	tw.Flush()
}

// machineModel assembles the core.Machines model from the -speeds and
// -preempt-cost flags, defaulting an unset -m to the speed vector's length
// (an explicitly set -m must match it; core validates the rest at run time).
func machineModel(speeds string, preemptCost float64, m *int) (core.Machines, error) {
	var mm core.Machines
	mm.PreemptCost = preemptCost
	if strings.TrimSpace(speeds) == "" {
		return mm, nil
	}
	for _, part := range strings.Split(speeds, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return mm, fmt.Errorf("-speeds: bad entry %q: %w", part, err)
		}
		mm.Speeds = append(mm.Speeds, f)
	}
	mSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "m" {
			mSet = true
		}
	})
	if !mSet {
		*m = len(mm.Speeds)
	} else if *m != len(mm.Speeds) {
		return mm, fmt.Errorf("-speeds has %d entries but -m is %d", len(mm.Speeds), *m)
	}
	return mm, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrsim:", err)
	os.Exit(1)
}
