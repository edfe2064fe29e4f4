package core

import (
	"strings"
	"testing"
)

// TestRenderGanttSingleInstant is the regression test for the unguarded
// bucket division: a schedule whose every segment is a single instant (all
// work at a magnitude where t+1 == t in float64) used to produce a zero
// bucket width, an int(NaN) bucket index and a slice panic.
func TestRenderGanttSingleInstant(t *testing.T) {
	const big = 1e16 // big + 1 == big in float64
	res := &Result{
		Policy: "RR", Machines: 1, Speed: 1,
		Jobs:       []Job{{ID: 7, Release: big, Size: 1e-14}},
		Completion: []float64{big},
		Flow:       []float64{0},
	}
	segs := []Segment{{Start: big, End: big, Jobs: []int{0}, Rates: []float64{1}}}
	out := RenderGantt(res, segs, 40)
	if !strings.Contains(out, "single-instant") {
		t.Fatalf("single-instant schedule not flagged:\n%s", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("render should end with a newline")
	}
}

// TestRenderGanttSingleInstantEngine drives the same degeneracy through a
// real engine run: sub-resolution job sizes at big releases make every
// step zero-length in float64, so the recorded timeline spans one instant.
func TestRenderGanttSingleInstantEngine(t *testing.T) {
	const big = 1e16
	in := NewInstance([]Job{
		{ID: 1, Release: big, Size: 1e-13},
		{ID: 2, Release: big, Size: 1e-13},
	})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	if mk := res.Makespan(); mk != big {
		t.Fatalf("expected single-instant schedule, makespan %v", mk)
	}
	out := RenderGantt(res, segs, 40) // must not panic
	if !strings.Contains(out, "single-instant") {
		t.Fatalf("single-instant schedule not flagged:\n%s", out)
	}
}

func TestRenderGanttBasic(t *testing.T) {
	in := observerInstance()
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	out := RenderGantt(res, segs, 40)
	for _, id := range []string{"    1 │", "    2 │", "    3 │", "    4 │"} {
		if !strings.Contains(out, id) {
			t.Fatalf("missing row %q in:\n%s", id, out)
		}
	}
}

// recordedGantt draws a chart the way rrtrace gantt does: a SegmentRecorder
// attached as the run's only observer, then RenderGantt over the timeline
// it recorded.
func recordedGantt(t *testing.T, in *Instance, width int) string {
	t.Helper()
	var rec SegmentRecorder
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1, Observer: &rec})
	return RenderGantt(res, rec.Segments, width)
}

func TestRenderGanttRecordedRun(t *testing.T) {
	if !ObserverNeedsJobEpochs(&SegmentRecorder{}) {
		t.Fatal("SegmentRecorder must need job epochs")
	}
	out := recordedGantt(t, observerInstance(), 40)
	for _, id := range []string{"    1 │", "    2 │", "    3 │", "    4 │"} {
		if !strings.Contains(out, id) {
			t.Fatalf("missing row %q in:\n%s", id, out)
		}
	}
	// The busy rows must actually be shaded.
	if !strings.ContainsAny(out, "·░▒▓█") {
		t.Fatalf("no shading glyphs in:\n%s", out)
	}
	// Header covers the horizon.
	if !strings.Contains(out, "policy eq (m=1, s=1)") {
		t.Fatalf("header missing run info:\n%s", out)
	}
}

func TestRenderGanttSingleInstantRecorded(t *testing.T) {
	const big = 1e16
	out := recordedGantt(t, NewInstance([]Job{{ID: 1, Release: big, Size: 1e-13}}), 40)
	if !strings.Contains(out, "single-instant") {
		t.Fatalf("single-instant schedule not flagged:\n%s", out)
	}
}

func TestRenderGanttEmptyRun(t *testing.T) {
	if out := recordedGantt(t, NewInstance(nil), 40); out != "(empty schedule)\n" {
		t.Fatalf("empty render = %q", out)
	}
}
