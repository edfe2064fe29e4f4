// Command rrbench regenerates the experiment suite E1–E28 (the numerical
// counterparts of the paper's claims — see DESIGN.md §3), rendering tables
// to stdout and CSV series to -out.
//
// Examples:
//
//	rrbench                     # full suite
//	rrbench -exp E2 -out results
//	rrbench -quick              # reduced grids (what the tests run)
//	rrbench -exp E2 -cpuprofile cpu.out -memprofile mem.out
//
// -n switches to single-run mode: one timed simulation of a Poisson
// workload at that size (scientific notation welcome: -n 1e7), printing
// the wall time and ns/job instead of the experiment tables.
//
//	rrbench -n 1e7 -policy RR -machines 8
//	rrbench -n 1e6 -policy SRPT -machines 8 -sharded -workers 4
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/exp"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/par"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

func main() {
	var (
		id         = flag.String("exp", "all", "experiment ID (E1..E28) or 'all'")
		out        = flag.String("out", "", "directory for CSV output (empty = none)")
		quick      = flag.Bool("quick", false, "reduced instance sizes and grids")
		seed       = flag.Uint64("seed", 42, "workload RNG seed")
		html       = flag.String("html", "", "also write a self-contained HTML report to this path")
		parallel   = flag.Bool("parallel", false, "run experiments concurrently (results still print in order)")
		workers    = flag.Int("workers", 0, "worker cap for -parallel (0 = GOMAXPROCS)")
		engine     = flag.String("engine", "auto", "simulation engine: auto, reference or fast")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation (heap) profile to this file on exit")
		singleN    = flag.String("n", "", "single-run mode: simulate one Poisson workload of this many jobs (scientific notation ok, e.g. 1e7) and print wall time + ns/job")
		polName    = flag.String("policy", "RR", "policy for -n single-run mode")
		machines   = flag.Int("machines", 1, "machine count for -n single-run mode (defaults to len(-speeds) when that is set)")
		speeds     = flag.String("speeds", "", "-n mode: comma-separated per-machine relative speeds, e.g. 1,2,4")
		pCost      = flag.Float64("preempt-cost", 0, "-n mode: extra work charged to a job each time it is preempted")
		sharded    = flag.Bool("sharded", false, "-n mode: run through the machine-sharded parallel runner (separable policies, -workers workers)")
	)
	flag.Parse()
	eng, err := core.ParseEngineKind(*engine)
	if err != nil {
		fatal(err)
	}
	if *singleN != "" {
		mm, err := machineModel(*speeds, *pCost, machines)
		if err != nil {
			fatal(err)
		}
		runSingle(*singleN, *polName, *machines, mm, *seed, eng, *sharded, *workers, *cpuprofile)
		return
	}
	cfg := exp.Config{Seed: *seed, Quick: *quick, OutDir: *out, Engine: eng}

	var exps []exp.Experiment
	if *id == "all" {
		exps = exp.All()
	} else {
		e, err := exp.ByID(*id)
		if err != nil {
			fatal(err)
		}
		exps = []exp.Experiment{e}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	type outcome struct {
		tables  []*exp.Table
		err     error
		elapsed time.Duration
	}
	results := make([]outcome, len(exps))
	runOne := func(i int) error {
		start := time.Now()
		tables, err := exps[i].Run(cfg)
		results[i] = outcome{tables, err, time.Since(start)}
		return nil // keep running the rest even after a failure, as before
	}
	if *parallel {
		// Experiments are independent and deterministic per Config, so fan
		// them out on a bounded pool (the sweeps inside already batch their
		// simulation points over per-worker workspaces); rendering below
		// stays in suite order.
		if err := par.ForEach(len(exps), *workers, runOne); err != nil {
			fatal(err)
		}
	} else {
		for i := range exps {
			if err := runOne(i); err != nil {
				fatal(err)
			}
		}
	}

	var all []*exp.Table
	for i, e := range exps {
		r := results[i]
		if r.err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, r.err))
		}
		for _, t := range r.tables {
			if err := t.Render(os.Stdout); err != nil {
				fatal(err)
			}
			if *out != "" {
				if err := t.WriteCSV(*out); err != nil {
					fatal(err)
				}
			}
		}
		all = append(all, r.tables...)
		fmt.Printf("[%s finished in %v]\n\n", e.ID, r.elapsed.Round(time.Millisecond))
	}
	if *out != "" {
		fmt.Printf("CSV series written to %s/\n", *out)
	}
	if *html != "" {
		f, err := os.Create(*html)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := exp.RenderHTML(f, cfg, all); err != nil {
			fatal(err)
		}
		fmt.Printf("HTML report written to %s\n", *html)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained allocations
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

// parseJobCount parses -n, accepting scientific notation (1e7) as well as
// plain integers.
func parseJobCount(s string) (int, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("-n %q: %w", s, err)
	}
	if !(f >= 1) || f > 1e9 || f != math.Trunc(f) {
		return 0, fmt.Errorf("-n %q: want an integer job count in [1, 1e9]", s)
	}
	return int(f), nil
}

// runSingle is -n mode: generate one Poisson workload (load 0.9, exp
// sizes), simulate it twice — a cold run that pays workspace growth, then
// a steady-state run on the warmed buffers — and print both walls with
// per-job costs. With -sharded the run goes through the machine-sharded
// parallel runner and the per-shard streaming norms are merged in shard
// order (byte-identical at any -workers count).
func runSingle(nStr, polName string, m int, mm core.Machines, seed uint64, eng core.EngineKind, sharded bool, workers int, cpuprofile string) {
	n, err := parseJobCount(nStr)
	if err != nil {
		fatal(err)
	}
	if m < 1 {
		fatal(fmt.Errorf("-machines %d: want ≥ 1", m))
	}
	if sharded && !mm.Default() {
		fatal(fmt.Errorf("-sharded shards identical machines; it is incompatible with -speeds/-preempt-cost"))
	}
	fmt.Printf("single run: %s n=%.3g m=%d (poisson load 0.9, exp sizes, seed %d)\n",
		polName, float64(n), m, seed)
	// Echo the full machine config so a pasted report names the exact model
	// the numbers were measured under.
	if mm.Heterogeneous() {
		total := 0.0
		for _, s := range mm.Speeds {
			total += s
		}
		fmt.Printf("machines: m=%d speeds=%v total_speed=%.6g preempt_cost=%g\n", m, mm.Speeds, total, mm.PreemptCost)
	} else {
		fmt.Printf("machines: m=%d identical unit speeds preempt_cost=%g\n", m, mm.PreemptCost)
	}
	in := workload.PoissonLoad(stats.NewRNG(seed), n, m, 0.9, workload.ExpSizes{M: 1})

	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := core.Options{Machines: m, Speed: 1, Engine: eng, MachineModel: mm}
	ws := core.NewWorkspace()
	sns := make([]*metrics.StreamNorm, m)
	run := func() (*core.Result, *metrics.StreamNorm, time.Duration) {
		if sharded {
			obsFor := func(s int) core.Observer {
				sns[s] = metrics.NewStreamNorm(1, 2, 3)
				return sns[s]
			}
			t0 := time.Now()
			res, err := batch.RunSharded(context.Background(), in, polName, opts, workers, ws, obsFor)
			wall := time.Since(t0)
			if err != nil {
				fatal(err)
			}
			merged := metrics.NewStreamNorm(1, 2, 3)
			for _, sn := range sns {
				merged.Merge(sn)
			}
			return res, merged, wall
		}
		p, err := policy.New(polName)
		if err != nil {
			fatal(err)
		}
		sn := metrics.NewStreamNorm(1, 2, 3)
		o := opts
		o.Observer = sn
		t0 := time.Now()
		res, err := fast.RunWS(in, p, o, ws)
		wall := time.Since(t0)
		if err != nil {
			fatal(err)
		}
		return res, sn, wall
	}

	res, sn, cold := run()
	_, _, steady := run()
	makespan, maxFlow := 0.0, 0.0
	for i, c := range res.Completion {
		makespan = math.Max(makespan, c)
		maxFlow = math.Max(maxFlow, res.Flow[i])
	}
	fmt.Printf("policy=%s n=%d m=%d events=%d makespan=%.6g\n", res.Policy, n, m, res.Events, makespan)
	fmt.Printf("L1=%.6g L2=%.6g L3=%.6g max=%.6g\n", sn.Norm(1), sn.Norm(2), sn.Norm(3), maxFlow)
	fmt.Printf("cold run:   %v (%.1f ns/job, includes workspace growth)\n", cold.Round(time.Microsecond), float64(cold.Nanoseconds())/float64(n))
	fmt.Printf("steady run: %v (%.1f ns/job)\n", steady.Round(time.Microsecond), float64(steady.Nanoseconds())/float64(n))
	if sharded {
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		fmt.Printf("sharded: %d shards over %d workers\n", m, workers)
	}
}

// machineModel assembles the core.Machines model from the -speeds and
// -preempt-cost flags, defaulting an unset -machines to the speed vector's
// length (an explicitly set -machines must match it).
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
		if f.Name == "machines" {
			mSet = true
		}
	})
	if !mSet {
		*m = len(mm.Speeds)
	} else if *m != len(mm.Speeds) {
		return mm, fmt.Errorf("-speeds has %d entries but -machines is %d", len(mm.Speeds), *m)
	}
	return mm, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rrbench:", err)
	os.Exit(1)
}
