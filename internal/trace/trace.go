// Package trace streams a simulation's event stream as JSON Lines — one
// self-describing object per arrival, epoch, completion and run summary —
// for piping into jq, dashboards or offline analysis. It is the I/O face
// of the core.Observer pipeline: where the other observers reduce the
// stream, Observer here serializes it, so a schedule can be inspected
// live (`rrtrace tail`) without recording its Segment timeline.
package trace

import (
	"bufio"
	"encoding/json"
	"io"

	"rrnorm/internal/core"
)

// Event is one JSONL record. Type discriminates which of the remaining
// fields are set: "arrival" (T, Job, ID, Release, Size, Weight), "epoch"
// (Start, End, Alive, RateSum), "completion" (T, Job, ID, Flow) and "done"
// (N, Events, Makespan, Policy, Machines, Speed).
type Event struct {
	Type string `json:"event"`

	T    float64 `json:"t,omitempty"`
	Job  int     `json:"job,omitempty"`
	ID   int     `json:"id,omitempty"`
	Flow float64 `json:"flow,omitempty"`

	Release float64 `json:"release,omitempty"`
	Size    float64 `json:"size,omitempty"`
	Weight  float64 `json:"weight,omitempty"`

	Start   float64 `json:"start,omitempty"`
	End     float64 `json:"end,omitempty"`
	Alive   int     `json:"alive,omitempty"`
	RateSum float64 `json:"rate_sum,omitempty"`

	N        int     `json:"n,omitempty"`
	Events   int     `json:"events,omitempty"`
	Makespan float64 `json:"makespan,omitempty"`
	Policy   string  `json:"policy,omitempty"`
	Machines int     `json:"machines,omitempty"`
	Speed    float64 `json:"speed,omitempty"`
}

// Observer writes one JSON object per event to an io.Writer, buffered.
// The first encoding error sticks and silences all later writes; check
// Err (or Flush's return) after the run. Completion records carry the
// job's public ID alongside the normalized index, learned from arrivals.
//
// Epochs can dominate the volume (there are O(events) of them); set
// SkipEpochs to trace only the per-job lifecycle.
type Observer struct {
	// SkipEpochs suppresses "epoch" records.
	SkipEpochs bool

	w   *bufio.Writer
	enc *json.Encoder
	ids []int // normalized index → public job ID
	err error
}

// NewObserver returns an Observer writing JSONL to w.
func NewObserver(w io.Writer) *Observer {
	bw := bufio.NewWriter(w)
	return &Observer{w: bw, enc: json.NewEncoder(bw)}
}

func (o *Observer) emit(e *Event) {
	if o.err != nil {
		return
	}
	o.err = o.enc.Encode(e)
}

// ObserveArrival implements core.Observer.
func (o *Observer) ObserveArrival(t float64, job int, j core.Job) {
	for len(o.ids) <= job {
		o.ids = append(o.ids, 0)
	}
	o.ids[job] = j.ID
	o.emit(&Event{Type: "arrival", T: t, Job: job, ID: j.ID,
		Release: j.Release, Size: j.Size, Weight: j.W()})
}

// ObserveEpoch implements core.Observer. Only the epoch's aggregates are
// serialized, so the record is identical on both engines.
func (o *Observer) ObserveEpoch(e *core.Epoch) {
	if o.SkipEpochs {
		return
	}
	o.emit(&Event{Type: "epoch", Start: e.Start, End: e.End,
		Alive: e.Alive, RateSum: e.RateSum})
}

// ObserveCompletion implements core.Observer.
func (o *Observer) ObserveCompletion(t float64, job int, flow float64) {
	id := 0
	if job < len(o.ids) {
		id = o.ids[job]
	}
	o.emit(&Event{Type: "completion", T: t, Job: job, ID: id, Flow: flow})
}

// ObserveDone implements core.Observer: a summary record, then a flush.
func (o *Observer) ObserveDone(res *core.Result) {
	o.emit(&Event{Type: "done", N: len(res.Jobs), Events: res.Events,
		Makespan: res.Makespan(), Policy: res.Policy,
		Machines: res.Machines, Speed: res.Speed})
	if err := o.w.Flush(); err != nil && o.err == nil {
		o.err = err
	}
}

// Flush drains the buffer (ObserveDone already does); call it when a run
// errors out before ObserveDone.
func (o *Observer) Flush() error {
	if err := o.w.Flush(); err != nil && o.err == nil {
		o.err = err
	}
	return o.err
}

// Err returns the first write or encoding error, if any.
func (o *Observer) Err() error { return o.err }
