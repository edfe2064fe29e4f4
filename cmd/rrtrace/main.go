// Command rrtrace generates, converts, inspects and visualizes workload
// traces.
//
// Subcommands:
//
//	rrtrace gen -workload poisson:n=100 -o jobs.csv      (or -o jobs.ndjson)
//	rrtrace describe -workload trace:path=jobs.csv
//	rrtrace gantt -workload cascade:levels=5 -policy RR -speed 1 -width 80
//	rrtrace tail -workload poisson:n=100 -policy RR        (live JSONL event stream)
//	rrtrace convert -in jobs.csv -o jobs.ndjson   (CSV/NDJSON/SWF → CSV/NDJSON)
//
// A path's extension picks its format: .ndjson, .jsonl and .json mean an
// NDJSON job trace, .swf (input only) the Standard Workload Format, and
// anything else a CSV job trace. Job traces are read and written by
// internal/trace (DESIGN §15).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "describe":
		err = cmdDescribe(os.Args[2:])
	case "gantt":
		err = cmdGantt(os.Args[2:])
	case "tail":
		err = cmdTail(os.Args[2:])
	case "machines":
		err = cmdMachines(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rrtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rrtrace <gen|describe|gantt|tail|machines|convert> [flags]")
	os.Exit(2)
}

// cmdTail simulates a policy and streams the run's lifecycle as JSONL —
// one record per arrival, rate-change epoch and completion, plus a final
// summary — produced by a trace.Observer attached to the engine's event
// taps. Nothing is buffered beyond one bufio.Writer: the stream is written
// as the schedule unfolds, so it works at sizes where a recorded Segment
// timeline would not fit in memory.
func cmdTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	spec := fs.String("workload", "poisson:n=100", "workload spec")
	seed := fs.Uint64("seed", 1, "RNG seed")
	pol := fs.String("policy", "RR", "policy name")
	m := fs.Int("m", 1, "machines")
	speed := fs.Float64("speed", 1, "speed")
	engine := fs.String("engine", "auto", "simulation engine: auto, reference or fast")
	noEpochs := fs.Bool("no-epochs", false, "omit epoch records (arrivals, completions and the summary only)")
	out := fs.String("o", "", "output path (empty = stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		return err
	}
	p, err := polspec.New(*pol)
	if err != nil {
		return err
	}
	eng, err := core.ParseEngineKind(*engine)
	if err != nil {
		return err
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	o := trace.NewObserver(w)
	o.SkipEpochs = *noEpochs
	if _, err := fast.Run(in, p, core.Options{Machines: *m, Speed: *speed, Engine: eng, Observer: o}); err != nil {
		return err
	}
	return o.Err()
}

// cmdMachines simulates a policy and prints the explicit per-machine
// schedule (McNaughton assignment of the rate-based schedule) as CSV:
// machine,job_id,start,end.
func cmdMachines(args []string) error {
	fs := flag.NewFlagSet("machines", flag.ExitOnError)
	spec := fs.String("workload", "staircase:n=5", "workload spec")
	seed := fs.Uint64("seed", 1, "RNG seed")
	pol := fs.String("policy", "RR", "policy name")
	m := fs.Int("m", 2, "machines")
	speed := fs.Float64("speed", 1, "speed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		return err
	}
	p, err := polspec.New(*pol)
	if err != nil {
		return err
	}
	res, err := core.Run(in, p, core.Options{Machines: *m, Speed: *speed, RecordSegments: true})
	if err != nil {
		return err
	}
	machines, err := core.AssignMachines(res)
	if err != nil {
		return err
	}
	if err := core.ValidateAssignment(res, machines); err != nil {
		return err
	}
	fmt.Println("machine,job_id,start,end")
	for _, ms := range machines {
		for _, s := range ms.Slices {
			fmt.Printf("%d,%d,%.9g,%.9g\n", ms.Machine, res.Jobs[s.Job].ID, s.Start, s.End)
		}
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	spec := fs.String("workload", "poisson:n=100", "workload spec")
	seed := fs.Uint64("seed", 1, "RNG seed")
	out := fs.String("o", "", "output path (.ndjson, .jsonl or .json: NDJSON; else CSV; empty = stdout CSV)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		return err
	}
	return writeInstance(in, *out)
}

func cmdDescribe(args []string) error {
	fs := flag.NewFlagSet("describe", flag.ExitOnError)
	spec := fs.String("workload", "", "workload spec")
	seed := fs.Uint64("seed", 1, "RNG seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		return err
	}
	fmt.Println(workload.Describe(in))
	fmt.Println(workload.Characterize(in))
	sizes := make([]float64, in.N())
	for i, j := range in.Jobs {
		sizes[i] = j.Size
	}
	fmt.Printf("sizes: min=%.4g p50=%.4g p99=%.4g max=%.4g\n",
		metrics.Min(sizes), metrics.Percentile(sizes, 50),
		metrics.Percentile(sizes, 99), metrics.Max(sizes))
	return nil
}

func cmdGantt(args []string) error {
	fs := flag.NewFlagSet("gantt", flag.ExitOnError)
	spec := fs.String("workload", "staircase:n=6", "workload spec")
	seed := fs.Uint64("seed", 1, "RNG seed")
	pol := fs.String("policy", "RR", "policy name")
	m := fs.Int("m", 1, "machines")
	speed := fs.Float64("speed", 1, "speed")
	width := fs.Int("width", 80, "chart width in columns")
	if err := fs.Parse(args); err != nil {
		return err
	}
	in, err := workload.FromSpec(*spec, *seed)
	if err != nil {
		return err
	}
	p, err := polspec.New(*pol)
	if err != nil {
		return err
	}
	// Streaming chart: a GanttObserver folds each epoch into fixed-width
	// buckets as the run unfolds (O(jobs·width) memory), instead of
	// recording the full Segment timeline and rendering it afterwards.
	g := core.NewGanttObserver(*width)
	if _, err := core.Run(in, p, core.Options{Machines: *m, Speed: *speed, Observer: g}); err != nil {
		return err
	}
	fmt.Print(g.Render())
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	inPath := fs.String("in", "", "input path (.ndjson, .jsonl or .json: NDJSON; .swf: SWF; else CSV)")
	out := fs.String("o", "", "output path (.ndjson, .jsonl or .json: NDJSON; else CSV; empty = stdout CSV)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("convert needs -in")
	}
	f, err := os.Open(*inPath)
	if err != nil {
		return err
	}
	defer f.Close()
	var in *core.Instance
	if isSWF(*inPath) {
		in, err = workload.ReadSWF(f, workload.SWFOptions{})
	} else {
		in, err = trace.ReadInstance(f, trace.PathFormat(*inPath))
	}
	if err != nil {
		return err
	}
	return writeInstance(in, *out)
}

func isSWF(path string) bool { return strings.ToLower(filepath.Ext(path)) == ".swf" }

// writeInstance writes in as a job trace to out, in the format its
// extension names, or as CSV to stdout when out is empty.
func writeInstance(in *core.Instance, out string) error {
	if out == "" {
		return trace.Encode(os.Stdout, in.Jobs, trace.FormatCSV)
	}
	if isSWF(out) {
		return fmt.Errorf("cannot write %s: SWF is an input format only", out)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.Encode(f, in.Jobs, trace.PathFormat(out)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
