// Command perfbench is rrnorm's layer-ladder benchmark. It drives one of
// three workloads through the program's public calls, checks every output,
// and prints one JSON result line:
//
//	engine-sweep  materialized fast-engine runs at n=10⁶ (engine, queue, core)
//	trace-replay  gzip NDJSON and CSV traces streamed through the decoder
//	serve-open    an open-loop request mix against rrserve's handler on loopback
//
// Usage, from the repository root (run.sh builds the command and runs it):
//
//	bash perfbench/run.sh --workload engine-sweep --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the same workload and seed run again with spans recorded around every
// call into a layer; the result then carries the per-layer metrics and the
// spans are written to --spans. Every timing is put in reference-host time
// by passes of a reference kernel timed through the run (host.go).
// --smoke shrinks every input to a few thousand jobs, so a sub-second run
// still completes many ops.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// processStart approximates the process start time: package variables are
// initialized before main runs.
var processStart = time.Now()

// setupReps is how many times a run builds its inputs; setup_s is the
// median of the repetitions.
const setupReps = 3

// metricDef names one metric with its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rr_ns_per_job", "ns"},
	{"srpt_ns_per_job", "ns"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the metrics a --trace 1 run reports, on every workload.
// A layer the workload does not cross reads 0.
var perLayer = []metricDef{
	{"core.startrun_ns_per_job", "ns"},
	{"fast.rr_ns_per_job", "ns"},
	{"fast.topm_ns_per_job", "ns"},
	{"fast.epochs_per_job", "count"},
	{"fast.allocs_per_op", "count"},
	{"metrics.streamnorm_ns_per_job", "ns"},
	{"trace.gunzip_ns_per_job", "ns"},
	{"trace.ndjson_ns_per_job", "ns"},
	{"trace.csv_ns_per_job", "ns"},
	{"trace.allocs_per_job", "count"},
	{"core.cursor_ns_per_job", "ns"},
	{"fast.stream_ns_per_job", "ns"},
	{"workload.gen_ns_per_job", "ns"},
	{"trace.encode_ns_per_job", "ns"},
	{"serve.handler_miss_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.handler_compare_ms", "ms"},
	{"serve.handler_replay_ms", "ms"},
	{"http.overhead_ms", "ms"},
	{"workload.fromspec_ms", "ms"},
	{"fast.simulate_ms", "ms"},
	{"metrics.summarize_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"core.reference_ms", "ms"},
	{"stats.timeline_ms", "ms"},
	{"serve.cache_hit_ratio", "1"},
	{"serve.rejected", "count"},
	{"loadgen.lag_p99_ms", "ms"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MiB"},
	{"tracing.overhead_pct", "%"},
	{"bench.unaccounted_share", "1"},
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	spans    string
}

// report is what a workload hands back: op counts, metric values by name,
// and the provenance of its op mix and sizes. A metric the workload has
// already put in reference-host time, op by op, has its raw value in raw;
// run divides every other timing by the run's host index.
type report struct {
	attempted, failed int
	values            map[string]float64
	raw               map[string]float64
	info              map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, raw: map[string]float64{}, info: map[string]any{}}
}

// fail counts one failed op and logs why to standard error.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

// benchWorkload is one workload: the function that runs it, the GOMAXPROCS
// it runs under (0 leaves the default), the reference kernel's parts its
// host index uses and the threads a kernel pass runs on, and whether its
// op rate is set by an open-loop schedule rather than by op speed.
type benchWorkload struct {
	run      func(cfg config, tr *tracer, hk *refKernel) (*report, error)
	procs    int
	parts    []int
	threads  int
	openLoop bool
}

// workloads maps a workload name to its definition. The batch workloads run
// one op at a time on one goroutine; with one P the collector shares that
// op's CPU instead of racing it on the second vCPU, whose speed the other
// tenants set, which narrowed their run-to-run spread on the reference
// host.
var workloads = map[string]benchWorkload{
	"engine-sweep": {run: runEngineSweep, procs: 1, parts: []int{partHeap, partSort}, threads: 1},
	"trace-replay": {run: runTraceReplay, procs: 1, parts: []int{partDecode}, threads: 1},
	"serve-open":   {run: runServeOpen, parts: []int{partHeap, partSort, partDecode}, threads: serveWorkers, openLoop: true},
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line: exactly these four keys.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, runs the workload and prints its result; it returns the
// process exit code: 0 when every op passed its check, 1 otherwise, 2 on a
// usage error.
func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	wl := workloads[cfg.workload]
	if wl.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wl.procs))
	}
	kernelStart := time.Now()
	hk, err := newRefKernel(wl.parts, wl.threads)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference kernel:", err)
		return 1
	}
	defer hk.close()
	hk.buildTime = time.Since(kernelStart)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	rep, err := wl.run(cfg, tr, hk)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	rep.values["peak_rss_mb"] = peakRSSMiB() - hk.residentMiB()
	if tr != nil && cfg.spans != "" {
		if err := tr.write(cfg.spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			return 1
		}
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultJSON{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricJSON, len(defs)),
	}
	idx := hk.index()
	raw := make(map[string]float64, len(defs))
	for _, d := range defs {
		v := rep.values[d.name]
		if r, ok := rep.raw[d.name]; ok {
			raw[d.name] = finite(r)
			continue
		}
		raw[d.name] = finite(v)
		switch {
		case d.unit == "ns" || d.unit == "ms" || d.unit == "s":
			rep.values[d.name] = v / idx
		case d.unit == "1/s" && !wl.openLoop:
			rep.values[d.name] = v * idx
		}
	}
	rep.info["host_index"] = idx
	rep.info["pass_host_index"] = hk.samples
	parts := map[string][]float64{}
	for _, p := range wl.parts {
		parts[[numParts]string{"heap", "sort", "decode"}[p]] = hk.partIdx[p]
	}
	rep.info["pass_part_index"] = parts
	rep.info["raw"] = raw
	w := bufio.NewWriter(stdout)
	prov := provenance(cfg, rep)
	pb, err := json.Marshal(map[string]any{"provenance": prov})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", pb)
	for _, d := range defs {
		v := rep.values[d.name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricJSON{Value: finite(v), Unit: d.unit}
	}
	fmt.Fprintf(w, "%-32s %14.6g (failed %d of %d ops)\n", "fail_ratio", float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	rb, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", rb)
	if err := w.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.attempted < 1 || rep.failed > 0 {
		return 1
	}
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: engine-sweep, trace-replay or serve-open")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny sizes, for tests")
	fs.StringVar(&cfg.spans, "spans", "", "file the traced run writes its spans to (default .bench_build/spans-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		return cfg, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(names, ", "))
	}
	if !(cfg.seconds > 0) || math.IsInf(cfg.seconds, 0) {
		return cfg, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	switch trace {
	case 0:
	case 1:
		cfg.trace = true
		if cfg.spans == "" {
			cfg.spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
		}
	default:
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	return cfg, nil
}

// provenance records what ran where: toolchain, host and the workload's op
// mix and sizes.
func provenance(cfg config, rep *report) map[string]any {
	p := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"smoke":      cfg.smoke,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	for k, v := range rep.info {
		p[k] = v
	}
	return p
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads VmHWM, the process's peak resident set, in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// finite maps +Inf, a percentile that lands on a failed request, to the
// largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// setup runs build setupReps times and stores setup_s in rep: the median
// over repetitions of each one's wall time divided by the mean host index
// of the kernel passes just before and just after it. The first
// repetition is timed from process start, less the time spent building
// the kernel and running the pass before it. Before each later one drop
// releases the previous repetition's state, so only one repetition's
// inputs are alive at a time.
func setup(rep *report, hk *refKernel, drop func(), build func() error) error {
	var raw, norm []float64
	passStart := time.Now()
	before, err := calibrate(hk)
	if err != nil {
		return err
	}
	t0 := processStart.Add(hk.buildTime + time.Since(passStart))
	for i := range setupReps {
		if i > 0 {
			drop()
			runtime.GC()
			t0 = time.Now()
		}
		if err := build(); err != nil {
			return err
		}
		t := time.Since(t0).Seconds()
		after, err := calibrate(hk)
		if err != nil {
			return err
		}
		raw = append(raw, t)
		norm = append(norm, t/((before+after)/2))
		before = after
	}
	rep.values["setup_s"] = median(norm)
	rep.raw["setup_s"] = median(raw)
	rep.info["setup_reps_s"] = raw
	return nil
}

// calibrate collects the heap and runs one pass of the reference kernel,
// so the pass never shares its time with a collection an op started; it
// returns the pass's host index.
func calibrate(hk *refKernel) (float64, error) {
	runtime.GC()
	return hk.pass()
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs with linear interpolation between
// order statistics; +Inf entries sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	if s[hi] == s[lo] || math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// memDelta is a runtime.MemStats difference over a phase.
type memDelta struct {
	before runtime.MemStats
}

func startMemDelta() *memDelta {
	d := &memDelta{}
	runtime.ReadMemStats(&d.before)
	return d
}

// record stores the phase's GC pause and allocation volume.
func (d *memDelta) record(r *report) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.values["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-d.before.PauseTotalNs) / 1e6
	r.values["runtime.alloc_mb"] = float64(after.TotalAlloc-d.before.TotalAlloc) / (1 << 20)
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// errNoOps reports a timed phase that completed no op.
var errNoOps = errors.New("timed phase completed no op; raise --seconds")
