package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/trace"
)

// runSmoke runs one workload at smoke sizes and returns its exit code and
// standard output.
func runSmoke(t *testing.T, workload string, traced bool) (int, string) {
	t.Helper()
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.8", "--smoke",
		"--spans", filepath.Join(t.TempDir(), "spans.json"), "--trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	var out bytes.Buffer
	code := run(args, &out)
	return code, out.String()
}

// TestSmoke runs every workload, untraced and traced, at tiny sizes: each
// must finish, print every named metric with its unit, and fail no check.
// It makes no timing assertions.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"engine-sweep", "trace-replay", "serve-open"} {
		for _, traced := range []bool{false, true} {
			code, out := runSmoke(t, w, traced)
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var res struct {
				Correct   *bool                  `json:"correct"`
				Attempted *int                   `json:"attempted"`
				Failed    *int                   `json:"failed"`
				Metrics   map[string]*metricJSON `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%s traced=%v: last line %q: %v", w, traced, lines[len(lines)-1], err)
			}
			if code != 0 || res.Correct == nil || !*res.Correct || res.Failed == nil || *res.Failed != 0 || res.Attempted == nil || *res.Attempted < 1 {
				t.Fatalf("%s traced=%v: exit %d, result %s", w, traced, code, lines[len(lines)-1])
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m := res.Metrics[d.name]
				switch {
				case m == nil:
					t.Errorf("%s traced=%v: metric %s missing", w, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s traced=%v: metric %s unit %q, want %q", w, traced, d.name, m.Unit, d.unit)
				case !traced && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, m.Value)
				}
			}
			if !strings.Contains(out, `"provenance"`) {
				t.Errorf("%s traced=%v: no provenance line", w, traced)
			}
		}
	}
}

// coarseCounter counts epochs and, like StreamNorm, accepts coarse ones.
type coarseCounter struct{ epochs int64 }

func (c *coarseCounter) ObserveArrival(float64, int, core.Job)   {}
func (c *coarseCounter) ObserveEpoch(*core.Epoch)                { c.epochs++ }
func (c *coarseCounter) ObserveCompletion(float64, int, float64) {}
func (c *coarseCounter) ObserveDone(*core.Result)                {}
func (c *coarseCounter) CoarseEpochsOK() bool                    { return true }

// hidingObserver wraps an observer without passing CoarseEpochsOK through:
// the mistake the counting shim must not make.
type hidingObserver struct{ core.Observer }

// TestTracedEngineRunsMatch checks that engine-sweep's traced op — RunWS
// with the counting shim around StreamNorm — gives the untraced op's norms
// and makespan bit for bit, and the epoch count of the untraced path. A
// shim that hid CoarseEpochsOK would put fast RR on its exact-epoch path;
// the control below shows that this changes the count.
func TestTracedEngineRunsMatch(t *testing.T) {
	pts, _ := enginePoints(5, 3000)
	ws := core.NewWorkspace()
	for _, pt := range pts {
		sn, cnt := metrics.NewStreamNorm(1, 2, 3), &coarseCounter{}
		opts := pt.opts
		opts.Observer = core.Multi(sn, cnt)
		res, err := fast.RunWS(pt.in, pt.pol, opts, ws)
		if err != nil {
			t.Fatal(err)
		}
		want := runOut{normsOf(sn), res.Makespan()}

		sn.Reset()
		shim := &countingObserver{obs: sn}
		opts.Observer = shim
		res, err = fast.RunWS(pt.in, pt.pol, opts, ws)
		if err != nil {
			t.Fatal(err)
		}
		if got := (runOut{normsOf(sn), res.Makespan()}); !got.equal(want) {
			t.Errorf("%s: traced %v, untraced %v", pt.name, got, want)
		}
		if shim.epochs != cnt.epochs {
			t.Errorf("%s: traced run saw %d epochs, untraced %d", pt.name, shim.epochs, cnt.epochs)
		}

		if pt.rr {
			hidden := &countingObserver{obs: hidingObserver{metrics.NewStreamNorm(1, 2, 3)}}
			opts.Observer = hidden
			if _, err := fast.RunWS(pt.in, pt.pol, opts, ws); err != nil {
				t.Fatal(err)
			}
			if hidden.epochs == cnt.epochs {
				t.Errorf("%s: hiding CoarseEpochsOK left the epoch count at %d; the check has no teeth", pt.name, cnt.epochs)
			}
		}
	}
}

// TestTracedReplayRunsMatch checks trace-replay's traced op — the reader
// shim over the gzip stream, the source shim over the decoder, the counting
// shim over StreamNorm — against the untraced replay, per op kind.
func TestTracedReplayRunsMatch(t *testing.T) {
	in := replayInstance(7, 2000)
	ndjson, err := encodeTrace(in.Jobs, trace.FormatNDJSON, true)
	if err != nil {
		t.Fatal(err)
	}
	csv, err := encodeTrace(in.Jobs, trace.FormatCSV, false)
	if err != nil {
		t.Fatal(err)
	}
	ws := core.NewWorkspace()
	for _, k := range replayKinds() {
		data := traceOf(k, ndjson, csv)
		sn, cnt := metrics.NewStreamNorm(1, 2, 3), &coarseCounter{}
		want, err := replay(data, k, core.Multi(sn, cnt), ws)
		if err != nil {
			t.Fatal(err)
		}
		wantOut := runOut{normsOf(sn), want.Makespan}

		sn.Reset()
		r, err := trace.MaybeGunzip(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rd := &timedReader{r: r}
		srcShim, src := wrapSource(trace.NewDecoder(rd, trace.DecodeOptions{Format: k.format}))
		shim := &countingObserver{obs: sn}
		got, err := fast.RunStream(src, k.pol, core.Options{Machines: replayMachines, Speed: 1, Observer: shim}, ws)
		if err != nil {
			t.Fatal(err)
		}
		if gotOut := (runOut{normsOf(sn), got.Makespan}); !gotOut.equal(wantOut) || got.N != want.N || got.Events != want.Events {
			t.Errorf("%s: traced %v (n=%d events=%d), untraced %v (n=%d events=%d)", k.name, gotOut, got.N, got.Events, wantOut, want.N, want.Events)
		}
		if shim.epochs != cnt.epochs {
			t.Errorf("%s: traced run saw %d epochs, untraced %d", k.name, shim.epochs, cnt.epochs)
		}
		if srcShim.calls != int64(in.N())+1 || rd.calls == 0 {
			t.Errorf("%s: shims saw %d Next and %d Read calls", k.name, srcShim.calls, rd.calls)
		}
	}
}

// TestSourceShimKeepsSized checks that the source shim is core.Sized exactly
// when the source it wraps is.
func TestSourceShimKeepsSized(t *testing.T) {
	in := replayInstance(1, 10)
	_, src := wrapSource(core.NewInstanceSource(in))
	if s, ok := src.(core.Sized); !ok || s.Len() != 10 {
		t.Errorf("shim over an InstanceSource: Sized %v", ok)
	}
	_, src = wrapSource(trace.NewDecoder(strings.NewReader(""), trace.DecodeOptions{}))
	if _, ok := src.(core.Sized); ok {
		t.Error("shim over a Decoder claims core.Sized")
	}
}

// TestDrawShares checks serve-open's mix rule: the four computing kinds
// take equal server time, and hits are as many as misses.
func TestDrawShares(t *testing.T) {
	sh := drawShares()
	sum := 0.0
	for _, x := range sh {
		sum += x
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	for k := range drawHit {
		if got, want := sh[k]*handlerCostMs[k], sh[drawMiss]*handlerCostMs[drawMiss]; math.Abs(got-want) > 1e-12 {
			t.Errorf("kind %d takes %v of server time, a miss %v", k, got, want)
		}
	}
	if math.Abs(sh[drawHit]-sh[drawMiss]-sh[drawTimeline]) > 1e-12 {
		t.Errorf("hit share %v, miss shares %v + %v", sh[drawHit], sh[drawMiss], sh[drawTimeline])
	}
}

// TestScheduleWindows checks that no request falls in a calibration window
// and that every kind appears.
func TestScheduleWindows(t *testing.T) {
	reqs, err := buildSchedule(4, 10, serveSizesFor(true))
	if err != nil {
		t.Fatal(err)
	}
	var seen [numClasses]int
	for _, r := range reqs {
		if r.at >= calEvery && r.at%calEvery < calGap {
			t.Errorf("request at %v is in a calibration window", r.at)
		}
		seen[r.class]++
	}
	for c, n := range seen {
		if n == 0 {
			t.Errorf("no %s request in 10 s", classNames[c])
		}
	}
}

func TestParseFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "engine-sweep", "--trace", "2"},
		{"--workload", "engine-sweep", "--seconds", "0"},
		{"--workload", "engine-sweep", "extra"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
	cfg, err := parseFlags([]string{"--workload", "serve-open", "--seed", "9", "--seconds", "2", "--trace", "1"})
	if err != nil || cfg.seed != 9 || cfg.seconds != 2 || !cfg.trace || cfg.spans == "" {
		t.Errorf("parseFlags: %+v, %v", cfg, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
