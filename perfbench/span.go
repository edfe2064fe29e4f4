package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"time"

	"rrnorm/internal/core"
)

// span is one timed call into a layer. Parent is the index of the enclosing
// span (-1 at the root) and Op the op it belongs to. Dur is End−Start for a
// span around one call; a shim span instead adds up Calls calls made
// inside [Start, End), so its Dur is their total.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Dur    int64  `json:"dur_ns"`
	Calls  int64  `json:"calls"`
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<12)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: t.now(), Calls: 1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.End = t.now()
	s.Dur = s.End - s.Start
	return time.Duration(s.Dur)
}

// addShim records a shim's added-up time as one span under parent,
// covering the parent's interval.
func (t *tracer) addShim(name string, op, parent int, total time.Duration, calls int64) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: p.Start, End: p.End, Dur: int64(total), Calls: calls})
}

// self returns the total self time of every span named name whose op
// satisfies keep (nil keeps all): its duration minus the durations of its
// direct children.
func (t *tracer) self(name string, keep func(op int) bool) time.Duration {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	var tot int64
	for i, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			tot += s.Dur - child[i]
		}
	}
	return time.Duration(tot)
}

// total returns the summed duration and call count of every span named
// name whose op satisfies keep (nil keeps all).
func (t *tracer) total(name string, keep func(op int) bool) (time.Duration, int64) {
	var d, n int64
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Op)) {
			d += s.Dur
			n += s.Calls
		}
	}
	return time.Duration(d), n
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"start": t.t0.Format(time.RFC3339Nano), "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// timedReader adds up the time spent in the wrapped reader's Read.
type timedReader struct {
	r     io.Reader
	total time.Duration
	calls int64
}

func (t *timedReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := t.r.Read(p)
	t.total += time.Since(t0)
	t.calls++
	return n, err
}

// timedSource adds up the time spent in the wrapped source's Next. It
// hides core.Sized; sizedSource adds it back when the source has it.
type timedSource struct {
	src   core.JobSource
	total time.Duration
	calls int64
}

func (t *timedSource) Next() (core.Job, bool, error) {
	t0 := time.Now()
	j, ok, err := t.src.Next()
	t.total += time.Since(t0)
	t.calls++
	return j, ok, err
}

// sizedSource is a timedSource over a core.Sized source.
type sizedSource struct{ *timedSource }

func (s sizedSource) Len() int { return s.src.(core.Sized).Len() }

// wrapSource returns the timing shim for src and the shim as a
// core.JobSource that is core.Sized exactly when src is.
func wrapSource(src core.JobSource) (*timedSource, core.JobSource) {
	t := &timedSource{src: src}
	if _, ok := src.(core.Sized); ok {
		return t, sizedSource{t}
	}
	return t, t
}

// countingObserver passes every callback to the wrapped observer and
// counts epochs and completions. It answers CoarseEpochsOK and
// NeedsJobEpochs as the wrapped observer does, so the engine takes the
// same path with the shim as without it. It does not time the callbacks:
// one StreamNorm call costs about as much as reading the clock, so the
// observer's cost comes from runs with and without it.
type countingObserver struct {
	obs         core.Observer
	epochs      int64
	completions int64
}

func (c *countingObserver) ObserveArrival(t float64, job int, j core.Job) {
	c.obs.ObserveArrival(t, job, j)
}

func (c *countingObserver) ObserveEpoch(e *core.Epoch) {
	c.epochs++
	c.obs.ObserveEpoch(e)
}

func (c *countingObserver) ObserveCompletion(t float64, job int, flow float64) {
	c.completions++
	c.obs.ObserveCompletion(t, job, flow)
}

func (c *countingObserver) ObserveDone(res *core.Result) { c.obs.ObserveDone(res) }

// CoarseEpochsOK implements core.CoarseEpochObserver.
func (c *countingObserver) CoarseEpochsOK() bool { return core.ObserverCoarseEpochsOK(c.obs) }

// NeedsJobEpochs implements core.JobEpochObserver.
func (c *countingObserver) NeedsJobEpochs() bool { return core.ObserverNeedsJobEpochs(c.obs) }
