package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// sliceSource is an unsized JobSource over a fixed job list, optionally
// failing after a prefix — the minimal streaming test double.
type sliceSource struct {
	jobs    []Job
	i       int
	failAt  int // fail before yielding job failAt (-1: never)
	failErr error
}

func (s *sliceSource) Next() (Job, bool, error) {
	if s.failErr != nil && s.i == s.failAt {
		return Job{}, false, s.failErr
	}
	if s.i >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.i]
	s.i++
	return j, true, nil
}

func testJobs() []Job {
	return []Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 1, Size: 1},
		{ID: 2, Release: 1, Size: 0}, // degenerate: completes at admission
		{ID: 3, Release: 5, Size: 2},
	}
}

func TestRunStreamMatchesRunWS(t *testing.T) {
	in := &Instance{Jobs: testJobs()}
	opts := Options{Machines: 1, Speed: 1}
	res, err := Run(in, eqPolicy{}, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	src := NewInstanceSource(in)
	sum, err := RunStream(src, eqPolicy{}, opts, nil)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if sum.N != len(in.Jobs) || sum.Completed != len(in.Jobs) {
		t.Fatalf("N=%d Completed=%d, want %d", sum.N, sum.Completed, len(in.Jobs))
	}
	if sum.Events != res.Events {
		t.Errorf("Events: stream %d, materialized %d", sum.Events, res.Events)
	}
	if sum.Makespan != res.Makespan() {
		t.Errorf("Makespan: stream %v, materialized %v", sum.Makespan, res.Makespan())
	}
	if sum.MaxFlow != res.MaxFlow() {
		t.Errorf("MaxFlow: stream %v, materialized %v", sum.MaxFlow, res.MaxFlow())
	}
	if sum.Policy != res.Policy || sum.Machines != res.Machines || sum.Speed != res.Speed {
		t.Errorf("header mismatch: %+v vs %s/%d/%v", sum, res.Policy, res.Machines, res.Speed)
	}
}

func TestRunStreamEmptySource(t *testing.T) {
	sum, err := RunStream(&sliceSource{}, eqPolicy{}, Options{Machines: 1, Speed: 1}, nil)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if sum.N != 0 || sum.Completed != 0 || sum.Events != 0 {
		t.Fatalf("want zero summary, got %+v", sum)
	}
}

// TestRunStreamRecordsSegments: a SegmentRecorder on a streaming run
// records the materialized run's timeline — a stream keeps O(alive) state
// unless the caller asks for the timeline.
func TestRunStreamRecordsSegments(t *testing.T) {
	opts := Options{Machines: 1, Speed: 1}
	_, want := mustRecord(t, &Instance{Jobs: testJobs()}, eqPolicy{}, opts)
	var rec SegmentRecorder
	opts.Observer = &rec
	if _, err := RunStream(&sliceSource{jobs: testJobs()}, eqPolicy{}, opts, nil); err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if fmt.Sprint(rec.Segments) != fmt.Sprint(want) {
		t.Fatalf("stream recorded %v, materialized %v", rec.Segments, want)
	}
}

func TestRunStreamSourceValidation(t *testing.T) {
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{
			name: "out of order release",
			jobs: []Job{{ID: 0, Release: 5, Size: 1}, {ID: 1, Release: 2, Size: 1}},
			want: "released at 2 after a job released at 5",
		},
		{
			name: "negative size",
			jobs: []Job{{ID: 0, Release: 0, Size: -1}},
			want: "negative or non-finite size",
		},
		{
			name: "invalid release",
			jobs: []Job{{ID: 7, Release: -3, Size: 1}},
			want: "invalid release",
		},
		{
			name: "invalid weight",
			jobs: []Job{{ID: 7, Release: 0, Size: 1, Weight: -2}},
			want: "invalid weight",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunStream(&sliceSource{jobs: tc.jobs}, eqPolicy{}, Options{Machines: 1, Speed: 1}, nil)
			if !errors.Is(err, ErrBadSource) {
				t.Fatalf("want ErrBadSource, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestRunStreamSourceError(t *testing.T) {
	boom := fmt.Errorf("disk on fire")
	src := &sliceSource{jobs: testJobs(), failAt: 2, failErr: boom}
	_, err := RunStream(src, eqPolicy{}, Options{Machines: 1, Speed: 1}, nil)
	if !errors.Is(err, ErrBadSource) || !errors.Is(err, boom) {
		t.Fatalf("want ErrBadSource wrapping source error, got %v", err)
	}
}

func TestInstanceSourceNormalizesAndResets(t *testing.T) {
	in := &Instance{Jobs: []Job{
		{ID: 1, Release: 4, Size: 1},
		{ID: 0, Release: 2, Size: 1},
	}}
	src := NewInstanceSource(in)
	if src.Len() != 2 {
		t.Fatalf("Len=%d", src.Len())
	}
	j, ok, err := src.Next()
	if err != nil || !ok || j.ID != 0 {
		t.Fatalf("first job %+v ok=%v err=%v, want ID 0", j, ok, err)
	}
	src.Reset()
	j, _, _ = src.Next()
	if j.ID != 0 {
		t.Fatalf("after Reset, first job %+v, want ID 0", j)
	}
	// The original instance is untouched (unsorted).
	if in.Jobs[0].ID != 1 {
		t.Fatalf("caller instance mutated: %+v", in.Jobs)
	}
}

func TestCursorSized(t *testing.T) {
	if c := CursorOver(testJobs()); c.Sized() != 4 {
		t.Errorf("CursorOver sized = %d", c.Sized())
	}
	if c := CursorFrom(&sliceSource{jobs: testJobs()}); c.Sized() != -1 {
		t.Errorf("unsized source sized = %d", c.Sized())
	}
	if c := CursorFrom(NewInstanceSource(&Instance{Jobs: testJobs()})); c.Sized() != 4 {
		t.Errorf("sized source sized = %d", c.Sized())
	}
}
