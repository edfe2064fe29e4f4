package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
)

// collector records every callback for contract checks; epochs are deep
// copies (the engine reuses the slices, per the ownership rule).
type collector struct {
	arrivalT map[int]float64
	arrivalJ map[int]Job
	complT   map[int]float64
	complF   map[int]float64
	epochs   []Epoch
	order    []string // coarse event kinds, in callback order
	done     int
	doneRes  *Result
}

func newCollector() *collector {
	return &collector{
		arrivalT: map[int]float64{}, arrivalJ: map[int]Job{},
		complT: map[int]float64{}, complF: map[int]float64{},
	}
}

func (c *collector) ObserveArrival(t float64, job int, j Job) {
	if _, dup := c.arrivalT[job]; dup {
		panic("duplicate arrival")
	}
	c.arrivalT[job] = t
	c.arrivalJ[job] = j
	c.order = append(c.order, "arrival")
}

func (c *collector) ObserveEpoch(e *Epoch) {
	cp := *e
	cp.Jobs = append([]int(nil), e.Jobs...)
	cp.Rates = append([]float64(nil), e.Rates...)
	c.epochs = append(c.epochs, cp)
	c.order = append(c.order, "epoch")
}

func (c *collector) ObserveCompletion(t float64, job int, flow float64) {
	if _, dup := c.complT[job]; dup {
		panic("duplicate completion")
	}
	c.complT[job] = t
	c.complF[job] = flow
	c.order = append(c.order, "completion")
}

func (c *collector) ObserveDone(res *Result) {
	c.done++
	c.doneRes = res
	c.order = append(c.order, "done")
}

func observerInstance() *Instance {
	return NewInstance([]Job{
		{ID: 1, Release: 0, Size: 4},
		{ID: 2, Release: 1, Size: 2},
		{ID: 3, Release: 1, Size: 0}, // degenerate: completes at admission
		{ID: 4, Release: 6, Size: 3},
	})
}

func TestObserverContract(t *testing.T) {
	in := observerInstance()
	c := newCollector()
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: c})
	n := len(res.Jobs)

	if c.done != 1 {
		t.Fatalf("ObserveDone fired %d times, want 1", c.done)
	}
	if c.doneRes != res {
		t.Fatalf("ObserveDone got a different *Result than the run returned")
	}
	if c.order[len(c.order)-1] != "done" {
		t.Fatalf("last event %q, want done", c.order[len(c.order)-1])
	}
	if len(c.arrivalT) != n || len(c.complT) != n {
		t.Fatalf("got %d arrivals, %d completions, want %d each", len(c.arrivalT), len(c.complT), n)
	}
	for i, j := range res.Jobs {
		if c.arrivalJ[i] != j {
			t.Errorf("job %d: arrival Job %+v, want %+v", i, c.arrivalJ[i], j)
		}
		approx(t, c.arrivalT[i], j.Release, 1e-9, "arrival time")
		approx(t, c.complT[i], res.Completion[i], 0, "completion time")
		approx(t, c.complF[i], res.Flow[i], 0, "completion flow")
	}

	// The epoch stream is the recorded segment timeline, field for field.
	if len(c.epochs) != len(segs) {
		t.Fatalf("got %d epochs, want %d segments", len(c.epochs), len(segs))
	}
	for i, e := range c.epochs {
		seg := segs[i]
		if e.Start != seg.Start || e.End != seg.End {
			t.Fatalf("epoch %d bounds [%v,%v], segment [%v,%v]", i, e.Start, e.End, seg.Start, seg.End)
		}
		if len(e.Jobs) != len(seg.Jobs) || e.Alive != len(seg.Jobs) {
			t.Fatalf("epoch %d alive %d/%d, segment %d", i, e.Alive, len(e.Jobs), len(seg.Jobs))
		}
		var sum float64
		for k := range seg.Jobs {
			if e.Jobs[k] != seg.Jobs[k] || e.Rates[k] != seg.Rates[k] {
				t.Fatalf("epoch %d job/rate %d mismatch", i, k)
			}
			sum += seg.Rates[k]
		}
		approx(t, e.RateSum, sum, 1e-12, "RateSum")
	}
}

// TestSegmentRecorderCopiesEpochs: a recorded timeline must survive the
// engine's next run on the same workspace, which rewrites the scratch the
// epochs' slices alias — the recorder deep-copies every epoch.
func TestSegmentRecorderCopiesEpochs(t *testing.T) {
	ws := NewWorkspace()
	opts := Options{Machines: 1, Speed: 1}
	_, ref := mustRecord(t, observerInstance(), eqPolicy{}, opts)

	var rec SegmentRecorder
	opts.Observer = &rec
	if _, err := RunWS(observerInstance(), eqPolicy{}, opts, ws); err != nil {
		t.Fatal(err)
	}
	opts.Observer = nil
	if _, err := RunWS(randomInstance(rand.New(rand.NewPCG(3, 4)), 30), onePolicy{}, opts, ws); err != nil {
		t.Fatal(err)
	}
	if len(rec.Segments) != len(ref) {
		t.Fatalf("recorder got %d segments, want %d", len(rec.Segments), len(ref))
	}
	for i := range rec.Segments {
		a, b := rec.Segments[i], ref[i]
		if a.Start != b.Start || a.End != b.End || len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("segment %d differs: %+v vs %+v", i, a, b)
		}
		for k := range a.Jobs {
			if a.Jobs[k] != b.Jobs[k] || a.Rates[k] != b.Rates[k] {
				t.Fatalf("segment %d entry %d differs", i, k)
			}
		}
	}
}

func TestObserverNoDoneOnError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := newCollector()
	_, err := Run(observerInstance(), eqPolicy{}, Options{Machines: 1, Speed: 1, Context: ctx, Observer: c})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if c.done != 0 {
		t.Fatalf("ObserveDone fired on an errored run")
	}
}

func TestObserverEmptyInstance(t *testing.T) {
	c := newCollector()
	res := mustRun(t, NewInstance(nil), eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: c})
	if c.done != 1 || c.doneRes != res {
		t.Fatalf("empty run: done=%d", c.done)
	}
	if len(c.arrivalT) != 0 || len(c.epochs) != 0 {
		t.Fatalf("empty run emitted events")
	}
}

// needy is a minimal observer that demands per-job epochs.
type needy struct {
	collector
	need bool
}

func (n *needy) NeedsJobEpochs() bool { return n.need }

func TestObserverNeedsJobEpochs(t *testing.T) {
	if ObserverNeedsJobEpochs(nil) {
		t.Fatal("nil observer needs nothing")
	}
	if ObserverNeedsJobEpochs(newCollector()) {
		t.Fatal("plain observer should not need job epochs")
	}
	if !ObserverNeedsJobEpochs(&needy{need: true}) {
		t.Fatal("needy observer not detected")
	}
	if ObserverNeedsJobEpochs(&needy{need: false}) {
		t.Fatal("needy=false observer misdetected")
	}
	if ObserverNeedsJobEpochs(Multi(newCollector(), &needy{need: false})) {
		t.Fatal("multi of non-needy observers misdetected")
	}
	if !ObserverNeedsJobEpochs(Multi(newCollector(), &needy{need: true})) {
		t.Fatal("multi with a needy member not detected")
	}
}

func TestMulti(t *testing.T) {
	a, b := newCollector(), newCollector()
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of no observers should be nil")
	}
	if got := Multi(nil, a, nil); got != Observer(a) {
		t.Fatal("Multi of one observer should be that observer")
	}
	m := Multi(a, b)
	if _, ok := m.(MultiObserver); !ok {
		t.Fatalf("Multi(a,b) = %T, want MultiObserver", m)
	}
	in := observerInstance()
	mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: m})
	if a.done != 1 || b.done != 1 {
		t.Fatalf("fan-out missed a member: done=%d/%d", a.done, b.done)
	}
	if len(a.order) != len(b.order) {
		t.Fatalf("fan-out order lengths differ: %d vs %d", len(a.order), len(b.order))
	}
}
