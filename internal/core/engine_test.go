package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
)

// eqPolicy shares machines equally among alive jobs (Round Robin), local to
// the core tests to avoid importing the policy package (import cycle in
// tests is fine but keep core self-contained).
type eqPolicy struct{}

func (eqPolicy) Name() string      { return "eq" }
func (eqPolicy) Clairvoyant() bool { return false }
func (eqPolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	share := math.Min(1, float64(m)/float64(len(jobs)))
	for i := range rates {
		rates[i] = share
	}
	return NoHorizon
}

// onePolicy runs the earliest-released alive job at rate 1 (FCFS, m=1 focus).
type onePolicy struct{}

func (onePolicy) Name() string      { return "one" }
func (onePolicy) Clairvoyant() bool { return false }
func (onePolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	k := m
	if len(jobs) < k {
		k = len(jobs)
	}
	for i := 0; i < k; i++ {
		rates[i] = 1
	}
	return NoHorizon
}

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Fatalf("%s: got %v, want %v (tol %v)", msg, got, want, tol)
	}
}

func mustRun(t *testing.T, in *Instance, p Policy, opts Options) *Result {
	t.Helper()
	res, err := Run(in, p, opts)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name(), err)
	}
	return res
}

// mustRecord is mustRun with a SegmentRecorder attached after
// opts.Observer; it returns the result and the recorded rate timeline.
func mustRecord(t *testing.T, in *Instance, p Policy, opts Options) (*Result, []Segment) {
	t.Helper()
	var rec SegmentRecorder
	opts.Observer = Multi(opts.Observer, &rec)
	return mustRun(t, in, p, opts), rec.Segments
}

// timelineRow is one side of TimelineMissing for the timeline readers'
// tests: res with the timeline segs a reader is handed, and whether the
// reader must refuse it as missing.
type timelineRow struct {
	name    string
	res     *Result
	segs    []Segment
	missing bool
}

// timelineRows returns a job that needs work handed no timeline (refused)
// and a run of two zero-size jobs, which complete at admission and so
// record no segments at all (accepted: the empty timeline is complete).
func timelineRows(t *testing.T) []timelineRow {
	t.Helper()
	opts := Options{Machines: 1, Speed: 1}
	work := mustRun(t, NewInstance([]Job{{ID: 0, Release: 0, Size: 1}}), eqPolicy{}, opts)
	zero, segs := mustRecord(t, NewInstance([]Job{{ID: 0, Release: 0}, {ID: 1, Release: 1}}), eqPolicy{}, opts)
	if len(segs) != 0 {
		t.Fatalf("zero-size jobs recorded %d segments, want none", len(segs))
	}
	return []timelineRow{
		{"work without timeline", work, nil, true},
		{"two zero-size jobs", zero, segs, false},
	}
}

func TestSingleJob(t *testing.T) {
	in := NewInstance([]Job{{ID: 1, Release: 2, Size: 5}})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 7, 1e-9, "completion")
	approx(t, res.Flow[0], 5, 1e-9, "flow")
}

func TestSingleJobWithSpeed(t *testing.T) {
	in := NewInstance([]Job{{ID: 1, Release: 2, Size: 5}})
	opts := Options{Machines: 1, Speed: 1}
	opts.Speed = 2.5
	res := mustRun(t, in, eqPolicy{}, opts)
	approx(t, res.Flow[0], 2, 1e-9, "flow at speed 2.5")
}

func TestRoundRobinTwoEqualJobs(t *testing.T) {
	// Two size-2 jobs at time 0 on one machine: each gets rate 1/2, both
	// complete at time 4.
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 0, Size: 2}})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 4, 1e-9, "job 0 completion")
	approx(t, res.Completion[1], 4, 1e-9, "job 1 completion")
}

func TestRoundRobinStaggered(t *testing.T) {
	// Job A size 2 at t=0, job B size 1 at t=1, one machine, equal split.
	// [0,1): A alone, elapsed 1. [1,..): share 1/2. B needs 1 → 2 more
	// units of wall time. At t=3 both A and B have received 1 in the shared
	// phase; A has 2 total → both complete at t=3.
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 1}})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 3, 1e-9, "A completion")
	approx(t, res.Completion[1], 3, 1e-9, "B completion")
	approx(t, res.Flow[1], 2, 1e-9, "B flow")
}

func TestMultiMachineUnderloaded(t *testing.T) {
	// 3 jobs on 4 machines: each runs exclusively.
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 3},
		{ID: 1, Release: 0, Size: 1},
		{ID: 2, Release: 0.5, Size: 2},
	})
	opts := Options{Machines: 1, Speed: 1}
	opts.Machines = 4
	res := mustRun(t, in, eqPolicy{}, opts)
	approx(t, res.Completion[0], 3, 1e-9, "job 0")
	approx(t, res.Completion[1], 1, 1e-9, "job 1")
	approx(t, res.Completion[2], 2.5, 1e-9, "job 2")
}

func TestMultiMachineOverloaded(t *testing.T) {
	// 4 equal jobs on 2 machines, all at t=0: shares 1/2 each, so each of
	// size 1 completes at t=2.
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{ID: i, Release: 0, Size: 1}
	}
	in := NewInstance(jobs)
	opts := Options{Machines: 1, Speed: 1}
	opts.Machines = 2
	res := mustRun(t, in, eqPolicy{}, opts)
	for i := range jobs {
		approx(t, res.Completion[i], 2, 1e-9, "completion")
	}
}

func TestIdleGapBetweenArrivals(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 10, Size: 1}})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 1, 1e-9, "job 0")
	approx(t, res.Completion[1], 11, 1e-9, "job 1")
}

func TestFCFSOrdering(t *testing.T) {
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: 2},
	})
	res := mustRun(t, in, onePolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 2, 1e-9, "job 0")
	approx(t, res.Completion[1], 4, 1e-9, "job 1")
}

func TestValidateInstanceErrors(t *testing.T) {
	cases := []struct {
		name string
		in   *Instance
	}{
		{"duplicate id", NewInstance([]Job{{ID: 1, Release: 0, Size: 1}, {ID: 1, Release: 1, Size: 1}})},
		{"negative size", NewInstance([]Job{{ID: 1, Release: 0, Size: -2}})},
		{"nan size", NewInstance([]Job{{ID: 1, Release: 0, Size: math.NaN()}})},
		{"negative release", NewInstance([]Job{{ID: 1, Release: -1, Size: 1}})},
		{"nan release", NewInstance([]Job{{ID: 1, Release: math.NaN(), Size: 1}})},
		{"inf size", NewInstance([]Job{{ID: 1, Release: 0, Size: math.Inf(1)}})},
	}
	for _, c := range cases {
		if err := c.in.Validate(); !errors.Is(err, ErrInvalidInstance) {
			t.Errorf("%s: want ErrInvalidInstance, got %v", c.name, err)
		}
	}
}

// TestZeroSizeJobCompletesAtAdmission: zero-size jobs are valid and
// complete the instant they are admitted, without occupying a rate share
// that would delay other jobs (regression for the completionTol/minAdvance
// edge case).
func TestZeroSizeJobCompletesAtAdmission(t *testing.T) {
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 4},
		{ID: 1, Release: 1, Size: 0},
		{ID: 2, Release: 10, Size: 0},
	})
	if err := in.Validate(); err != nil {
		t.Fatalf("zero-size instance should validate: %v", err)
	}
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	// Job 0 must be completely unaffected by the zero-size jobs.
	approx(t, res.Completion[0], 4, 1e-9, "job 0 completion")
	approx(t, res.Flow[1], 0, 1e-9, "zero-size flow at t=1")
	approx(t, res.Completion[1], 1, 1e-9, "zero-size completion at release")
	// Job 2 arrives after all work is done: it completes at its release.
	approx(t, res.Completion[2], 10, 1e-9, "idle-time zero-size completion")
}

// TestSubToleranceSizeJob: sizes below the completion tolerance floor
// (CompletionTol(p) ≥ p) behave like zero-size jobs — complete at
// admission — instead of triggering minAdvance-clamped micro-steps.
func TestSubToleranceSizeJob(t *testing.T) {
	tiny := 1e-16
	if CompletionTol(tiny) < tiny {
		t.Fatalf("test premise: CompletionTol(%g)=%g should dominate", tiny, CompletionTol(tiny))
	}
	in := NewInstance([]Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0.5, Size: tiny},
	})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	approx(t, res.Completion[0], 2, 1e-9, "normal job unaffected")
	approx(t, res.Completion[1], 0.5, 1e-9, "tiny job completes at release")
	if res.Events > 10 {
		t.Fatalf("tiny job caused %d events (minAdvance churn?)", res.Events)
	}
}

// TestIdenticalReleaseBatch: a batch of jobs sharing one release time must
// be admitted together in ID order and complete deterministically — the
// tie-break contract both engines rely on.
func TestIdenticalReleaseBatch(t *testing.T) {
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = Job{ID: 4 - i, Release: 1, Size: 1}
	}
	in := NewInstance(jobs)
	for i, j := range in.Jobs {
		if j.ID != i {
			t.Fatalf("normalize should order identical releases by ID: %v", in.Jobs)
		}
	}
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	for i := range in.Jobs {
		// Equal sharing of 5 unit jobs on one machine: all complete at 1+5.
		approx(t, res.Completion[i], 6, 1e-9, "batch completion")
	}
	res2 := mustRun(t, in, onePolicy{}, Options{Machines: 1, Speed: 1})
	for i := range in.Jobs {
		// One at a time in ID order: job i completes at 1+(i+1).
		approx(t, res2.Completion[i], 2+float64(i), 1e-9, "serial batch completion")
	}
}

func TestEngineKindStringParse(t *testing.T) {
	for _, k := range []EngineKind{EngineAuto, EngineReference, EngineFast} {
		got, err := ParseEngineKind(k.String())
		if err != nil || got != k {
			t.Errorf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := ParseEngineKind("warp"); !errors.Is(err, ErrBadOptions) {
		t.Errorf("ParseEngineKind(warp): want ErrBadOptions, got %v", err)
	}
	if k, err := ParseEngineKind(""); err != nil || k != EngineAuto {
		t.Errorf("empty engine should be auto, got %v, %v", k, err)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	if _, err := Run(in, eqPolicy{}, Options{Machines: 0, Speed: 1}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("machines=0: want ErrBadOptions, got %v", err)
	}
	if _, err := Run(in, eqPolicy{}, Options{Machines: 1, Speed: 0}); !errors.Is(err, ErrBadOptions) {
		t.Errorf("speed=0: want ErrBadOptions, got %v", err)
	}
}

type zeroPolicy struct{}

func (zeroPolicy) Name() string      { return "zero" }
func (zeroPolicy) Clairvoyant() bool { return false }
func (zeroPolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	return NoHorizon
}

func TestStarvationDetected(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	if _, err := Run(in, zeroPolicy{}, Options{Machines: 1, Speed: 1}); !errors.Is(err, ErrStarvation) {
		t.Errorf("want ErrStarvation, got %v", err)
	}
}

type overPolicy struct{}

func (overPolicy) Name() string      { return "over" }
func (overPolicy) Clairvoyant() bool { return false }
func (overPolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	for i := range rates {
		rates[i] = 1
	}
	return NoHorizon
}

func TestInfeasibleRatesDetected(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}, {ID: 1, Release: 0, Size: 1}})
	if _, err := Run(in, overPolicy{}, Options{Machines: 1, Speed: 1}); !errors.Is(err, ErrBadRates) {
		t.Errorf("want ErrBadRates, got %v", err)
	}
}

type tinyHorizonPolicy struct{}

func (tinyHorizonPolicy) Name() string      { return "tiny" }
func (tinyHorizonPolicy) Clairvoyant() bool { return false }
func (tinyHorizonPolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	rates[0] = 1
	return 1e-9
}

func TestEventBudgetEnforced(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	opts := Options{Machines: 1, Speed: 1}
	opts.MaxEvents = 100
	if _, err := Run(in, tinyHorizonPolicy{}, opts); !errors.Is(err, ErrEventOverrun) {
		t.Errorf("want ErrEventOverrun, got %v", err)
	}
}

func TestEmptyInstance(t *testing.T) {
	res := mustRun(t, NewInstance(nil), eqPolicy{}, Options{Machines: 1, Speed: 1})
	if len(res.Flow) != 0 || res.Events != 0 {
		t.Fatalf("empty instance should be a no-op, got %+v", res)
	}
}

func TestSegmentsRecorded(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 2}, {ID: 1, Release: 1, Size: 1}})
	res, segs := mustRecord(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	if len(segs) == 0 {
		t.Fatal("no segments recorded")
	}
	if err := ValidateResult(res, segs); err != nil {
		t.Fatalf("ValidateResult: %v", err)
	}
	// First segment: only job 0 alive.
	s0 := segs[0]
	if len(s0.Jobs) != 1 || s0.Jobs[0] != 0 {
		t.Fatalf("first segment should contain only job 0: %+v", s0)
	}
}

func TestValidateNeedsSegments(t *testing.T) {
	for _, row := range timelineRows(t) {
		err := ValidateResult(row.res, row.segs)
		if (err != nil) != row.missing {
			t.Errorf("%s: ValidateResult = %v, want missing=%v", row.name, err, row.missing)
		}
	}
}

func TestResetterCalled(t *testing.T) {
	p := &resettingPolicy{}
	in := NewInstance([]Job{{ID: 0, Release: 0, Size: 1}})
	mustRun(t, in, p, Options{Machines: 1, Speed: 1})
	mustRun(t, in, p, Options{Machines: 1, Speed: 1})
	if p.resets != 2 {
		t.Fatalf("Reset called %d times, want 2", p.resets)
	}
}

type resettingPolicy struct {
	resets int
}

func (p *resettingPolicy) Reset()            { p.resets++ }
func (p *resettingPolicy) Name() string      { return "resetting" }
func (p *resettingPolicy) Clairvoyant() bool { return false }
func (p *resettingPolicy) Rates(now float64, jobs []JobView, m int, speed float64, rates []float64) float64 {
	for i := 0; i < len(jobs) && i < m; i++ {
		rates[i] = 1
	}
	return NoHorizon
}

// randomInstance builds a deterministic random instance for property tests.
func randomInstance(rng *rand.Rand, n int) *Instance {
	jobs := make([]Job, n)
	t := 0.0
	for i := range jobs {
		t += rng.Float64() * 2
		jobs[i] = Job{ID: i, Release: t, Size: 0.1 + rng.Float64()*5}
	}
	return NewInstance(jobs)
}

func TestPropertyScheduleInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.IntN(30)
		in := randomInstance(rng, n)
		m := 1 + rng.IntN(4)
		speed := 1 + rng.Float64()*3
		opts := Options{Machines: m, Speed: speed}
		for _, p := range []Policy{eqPolicy{}, onePolicy{}} {
			res, segs := mustRecord(t, in, p, opts)
			if err := ValidateResult(res, segs); err != nil {
				t.Fatalf("trial %d (%s, m=%d, s=%v): %v", trial, p.Name(), m, speed, err)
			}
			for i, j := range res.Jobs {
				// Flow is at least size/speed (a job cannot finish
				// faster than a dedicated speed-s machine).
				if res.Flow[i] < j.Size/speed-1e-9 {
					t.Fatalf("trial %d: job %d flow %v < size/speed %v", trial, j.ID, res.Flow[i], j.Size/speed)
				}
			}
		}
	}
}

func TestFlowByID(t *testing.T) {
	in := NewInstance([]Job{{ID: 7, Release: 0, Size: 1}, {ID: 3, Release: 1, Size: 2}})
	res := mustRun(t, in, eqPolicy{}, Options{Machines: 1, Speed: 1})
	m := res.FlowByID()
	if len(m) != 2 {
		t.Fatalf("want 2 entries, got %v", m)
	}
	approx(t, m[7], 1, 1e-9, "job 7 flow")
}

func TestInstanceHelpers(t *testing.T) {
	in := NewInstance([]Job{{ID: 0, Release: 3, Size: 2}, {ID: 1, Release: 1, Size: 4}})
	if in.Jobs[0].ID != 1 {
		t.Fatal("Normalize should sort by release")
	}
	approx(t, in.TotalWork(), 6, 1e-12, "total work")
	approx(t, in.MaxRelease(), 3, 1e-12, "max release")
	approx(t, in.Span(), 9, 1e-12, "span")
	sc := in.Scale(2, 0.5)
	approx(t, sc.Jobs[0].Release, 2, 1e-12, "scaled release")
	approx(t, sc.Jobs[0].Size, 2, 1e-12, "scaled size")
	merged := Merge(in, sc)
	if merged.N() != 4 {
		t.Fatalf("merge: want 4 jobs, got %d", merged.N())
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged instance invalid: %v", err)
	}
}
