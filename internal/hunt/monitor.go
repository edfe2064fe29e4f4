package hunt

import (
	"fmt"
	"math"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
)

// Anomaly is one invariant violation found by the monitors. Kind is a
// stable machine-readable tag; Msg carries the quantities.
type Anomaly struct {
	Kind string
	Msg  string
}

func (a Anomaly) String() string { return a.Kind + ": " + a.Msg }

// Anomaly kinds. Every kind names a statement that is a THEOREM about a
// correct simulator + bound stack — a firing monitor means a bug (or a
// tolerance breach worth a look), never an interesting instance.
const (
	// AnomLBAboveAchieved: the LP lower bound on OPT's Σ F^k exceeds the
	// Σ F^k of an achieved unit-speed schedule (RR or SRPT). OPT is ≤ any
	// achieved schedule, so the "lower bound" isn't one.
	AnomLBAboveAchieved = "lb-above-achieved"
	// AnomRRBelowLB: RR at speed ≤ 1 reports a smaller Σ F^k than the
	// lower bound on the unit-speed optimum — a sub-unit-speed schedule
	// beating OPT.
	AnomRRBelowLB = "rr-below-lb"
	// AnomNonFinite: an evaluation produced NaN/Inf where a finite
	// quantity belongs.
	AnomNonFinite = "non-finite"
	// AnomCertInfeasible: the dual-fitting certificate fails (constraint
	// violation or lemma failure) at a speed where Theorem 1 proves it
	// feasible.
	AnomCertInfeasible = "dual-certificate-failed"
	// AnomTheoryBound: RR's Σ F^k at the certificate speed exceeds the
	// certified bound ImpliedPowerRatio × (achieved upper bound on OPT^k).
	AnomTheoryBound = "theory-bound-exceeded"
	// AnomStream: a streaming schedule invariant broke mid-run (epoch
	// ordering, rate capacity, impossible completion).
	AnomStream = "stream-invariant"
)

// maxAnomalies bounds what a monitor retains; a broken tree would
// otherwise flood memory with millions of identical findings.
const maxAnomalies = 64

// Monitor is the hunt's anomaly layer: it cross-checks every evaluation
// against statements the theory guarantees, absorbs the streaming
// monitors' findings, and (for champions) verifies the paper's
// dual-fitting certificate end to end. A healthy tree keeps it silent; any
// finding is a correctness bug somewhere in engines, LP, or dual fitting.
//
// Monitor is not safe for concurrent use; the search calls it from one
// goroutine (streaming monitors run inside engine goroutines, but each
// run owns a private StreamMonitor that is absorbed afterwards).
type Monitor struct {
	p Params
	// Eps is the dual-fitting ε used by CheckCertificate (default 0.1,
	// the largest the construction allows — the weakest speed demand).
	Eps float64
	// Tol is the relative slack all comparisons allow (default 1e-6, the
	// differential harness's bar).
	Tol float64

	anomalies []Anomaly
	dropped   int
	checked   int
}

// NewMonitor returns a monitor for the hunt cell p.
func NewMonitor(p Params) *Monitor {
	return &Monitor{p: p.withDefaults(), Eps: 0.1, Tol: 1e-6}
}

// Checked returns the number of evaluations checked.
func (m *Monitor) Checked() int { return m.checked }

// Anomalies returns the findings so far (at most maxAnomalies; the
// overflow count is appended as a final pseudo-anomaly).
func (m *Monitor) Anomalies() []Anomaly {
	out := append([]Anomaly(nil), m.anomalies...)
	if m.dropped > 0 {
		out = append(out, Anomaly{Kind: "truncated", Msg: fmt.Sprintf("%d further anomalies dropped", m.dropped)})
	}
	return out
}

func (m *Monitor) add(kind, format string, args ...any) {
	if len(m.anomalies) >= maxAnomalies {
		m.dropped++
		return
	}
	m.anomalies = append(m.anomalies, Anomaly{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// slack is the mixed absolute/relative tolerance band around x.
func (m *Monitor) slack(x float64) float64 { return m.Tol * (1 + math.Abs(x)) }

// CheckEvaluation cross-checks one evaluation. name labels the candidate
// in findings (seed spec, "mutant", "shrunk").
func (m *Monitor) CheckEvaluation(name string, in *core.Instance, ev *Evaluation) {
	m.checked++
	for _, q := range []struct {
		label string
		v     float64
	}{
		{"RRPower", ev.RRPower},
		{"UnitRRPower", ev.UnitRRPower},
		{"UnitSRPTPower", ev.UnitSRPTPower},
		{"LB", ev.LB.Value},
	} {
		if math.IsNaN(q.v) || math.IsInf(q.v, 0) || q.v < 0 {
			m.add(AnomNonFinite, "%s: %s = %v (n=%d)", name, q.label, q.v, in.N())
		}
	}
	if ub := ev.UnitBest(); ev.LB.Value > ub+m.slack(ub) {
		m.add(AnomLBAboveAchieved, "%s: LB %.6g above achieved unit-speed Σ F^%d %.6g (n=%d, m=%d)",
			name, ev.LB.Value, m.p.K, ub, in.N(), m.p.Machines)
	}
	// RR cannot beat the unit-speed optimum only when no machine runs
	// faster than unit speed after augmentation: then RR's schedule is
	// feasible for OPT's m unit machines. A heterogeneous model with a
	// machine faster than 1/Speed legitimately undercuts the bound.
	sMax := 1.0
	for _, sp := range m.p.MachineSpeeds {
		if sp > sMax {
			sMax = sp
		}
	}
	if m.p.Speed*sMax <= 1 && ev.RRPower+m.slack(ev.LB.Value) < ev.LB.Value {
		m.add(AnomRRBelowLB, "%s: RR at speed %g has Σ F^%d %.6g below the unit-speed lower bound %.6g",
			name, m.p.Speed, m.p.K, ev.RRPower, ev.LB.Value)
	}
}

// CheckCertificate runs the paper's dual-fitting certificate on the
// instance — RR at Theorem 1's speed η = 2k(1+10ε) with the streaming
// witness observer — and flags any failure: the theorem says the
// certificate is feasible with dual objective ≥ ε·Σ F^k at that speed, so
// an infeasible certificate on any instance the hunter can construct is a
// found bug, not a found instance. It also checks the implied ratio bound
// against an achieved upper bound on OPT^k (SRPT at unit speed).
//
// This is the expensive cross-check (the witness needs per-job epochs, so
// the run routes to the reference engine); the search applies it to
// champions, not to every candidate.
func (m *Monitor) CheckCertificate(name string, in *core.Instance) {
	if in.N() == 0 {
		return
	}
	w, err := dual.NewWitnessObserver(m.p.K, m.Eps, m.p.Machines)
	if err != nil {
		m.add(AnomCertInfeasible, "%s: witness construction: %v", name, err)
		return
	}
	eta := dual.Eta(m.p.K, m.Eps)
	res, err := fast.Run(in, policy.NewRR(), core.Options{Machines: m.p.Machines, Speed: eta, Observer: w})
	if err != nil {
		m.add(AnomCertInfeasible, "%s: RR at η=%.3g failed: %v", name, eta, err)
		return
	}
	cert, err := w.Certificate()
	if err != nil {
		m.add(AnomCertInfeasible, "%s: %v", name, err)
		return
	}
	if !cert.Feasible {
		m.add(AnomCertInfeasible, "%s: dual constraints violated (max violation %.3g at job %d)",
			name, cert.MaxViolation, cert.ViolatingJob)
	}
	if !cert.Lemma1OK || !cert.Lemma2OK {
		m.add(AnomCertInfeasible, "%s: lemma failure (L1 %.6g≥%.6g: %v, L2 %.6g≤%.6g: %v)",
			name, cert.Lemma1LHS, cert.Lemma1RHS, cert.Lemma1OK, cert.Lemma2LHS, cert.Lemma2RHS, cert.Lemma2OK)
	}
	if cert.RRPower > 0 && cert.ObjectiveFraction+m.Tol < m.Eps {
		m.add(AnomCertInfeasible, "%s: dual objective fraction %.6g below ε=%g at speed η=%.3g",
			name, cert.ObjectiveFraction, m.Eps, eta)
	}
	// Theory-bound cross-check: Σ F^k at η ≤ ImpliedPowerRatio · OPT^k
	// ≤ ImpliedPowerRatio · (SRPT's unit-speed Σ F^k).
	if cert.Feasible {
		srpt, err := fast.Run(in, policy.NewSRPT(), core.Options{Machines: m.p.Machines, Speed: 1})
		if err != nil {
			m.add(AnomNonFinite, "%s: SRPT upper-bound run failed: %v", name, err)
			return
		}
		ub := cert.ImpliedPowerRatio * metrics.KthPowerSum(srpt.Flow, m.p.K)
		if pow := metrics.KthPowerSum(res.Flow, m.p.K); pow > ub+m.slack(ub) {
			m.add(AnomTheoryBound, "%s: Σ F^%d at η %.6g exceeds certified bound %.6g",
				name, m.p.K, pow, ub)
		}
	}
}

// absorb moves a streaming monitor's findings into the monitor.
func (m *Monitor) absorb(name string, sm *StreamMonitor) {
	if sm == nil {
		return
	}
	for _, a := range sm.Anomalies() {
		m.add(a.Kind, "%s: %s", name, a.Msg)
	}
}

// StreamMonitor is the observer-based invariant layer: attached to any run
// via core.Options.Observer it checks, online, that the event stream
// describes a physically possible schedule — epochs chronological and
// non-overlapping, rate sums within machine capacity, completions no
// earlier than release + size/speed, exactly one completion per arrival.
// It never retains engine-owned slices and works with aggregate-only
// epochs, so the fast paths stay eligible.
//
// The search attaches one to every RR evaluation run; rrserve can attach
// one per simulation (Config.MonitorAnomalies) as a standing net in
// production.
type StreamMonitor struct {
	machines int
	speed    float64
	capacity float64 // total rate capacity: Σ machine speeds (m when identical)
	maxSpeed float64 // fastest machine's relative speed (1 when identical)

	release   []float64 // per arrived job, copied from arrivals
	size      []float64
	completed []bool
	lastEnd   float64
	arrivals  int
	completes int
	anomalies []Anomaly
	dropped   int
}

// NewStreamMonitor returns a monitor for a run on `machines` identical
// machines at the given speed (the run's own options; used for capacity and
// minimum-flow checks).
func NewStreamMonitor(machines int, speed float64) *StreamMonitor {
	return NewStreamMonitorModel(machines, speed, core.Machines{})
}

// NewStreamMonitorModel is NewStreamMonitor under an explicit machine
// model: capacity becomes the speed vector's sum and the minimum-flow bound
// uses the fastest machine, so heterogeneous runs are checked against their
// actual physics instead of the identical-machine envelope.
func NewStreamMonitorModel(machines int, speed float64, mm core.Machines) *StreamMonitor {
	if machines < 1 {
		machines = 1
	}
	if speed <= 0 {
		speed = 1
	}
	s := &StreamMonitor{machines: machines, speed: speed, capacity: float64(machines), maxSpeed: 1}
	if mm.Heterogeneous() {
		total, max := 0.0, 0.0
		for _, sp := range mm.Speeds {
			total += sp
			if sp > max {
				max = sp
			}
		}
		if total > 0 {
			s.capacity = total
		}
		if max > 0 {
			s.maxSpeed = max
		}
	}
	return s
}

// Anomalies returns the findings (at most maxAnomalies, plus a truncation
// marker).
func (s *StreamMonitor) Anomalies() []Anomaly {
	out := append([]Anomaly(nil), s.anomalies...)
	if s.dropped > 0 {
		out = append(out, Anomaly{Kind: "truncated", Msg: fmt.Sprintf("%d further anomalies dropped", s.dropped)})
	}
	return out
}

func (s *StreamMonitor) add(format string, args ...any) {
	if len(s.anomalies) >= maxAnomalies {
		s.dropped++
		return
	}
	s.anomalies = append(s.anomalies, Anomaly{Kind: AnomStream, Msg: fmt.Sprintf(format, args...)})
}

func tolBand(x float64) float64 { return 1e-6 * (1 + math.Abs(x)) }

// ObserveArrival implements core.Observer.
func (s *StreamMonitor) ObserveArrival(t float64, job int, j core.Job) {
	for len(s.release) <= job {
		s.release = append(s.release, 0)
		s.size = append(s.size, 0)
		s.completed = append(s.completed, false)
	}
	s.release[job] = j.Release
	s.size[job] = j.Size
	s.arrivals++
	if t+tolBand(t) < j.Release {
		s.add("job %d admitted at %.9g before release %.9g", job, t, j.Release)
	}
}

// ObserveEpoch implements core.Observer. Only scalar fields are read —
// engine-owned slices are neither touched nor retained.
func (s *StreamMonitor) ObserveEpoch(e *core.Epoch) {
	if e.End < e.Start {
		s.add("epoch reversed [%.9g, %.9g)", e.Start, e.End)
	}
	if e.Start+tolBand(e.Start) < s.lastEnd {
		s.add("epoch [%.9g, %.9g) overlaps previous end %.9g", e.Start, e.End, s.lastEnd)
	}
	if e.End > s.lastEnd {
		s.lastEnd = e.End
	}
	if e.RateSum > s.capacity+1e-6 {
		s.add("epoch [%.9g, %.9g) rate sum %.9g exceeds capacity %.9g (m=%d)", e.Start, e.End, e.RateSum, s.capacity, s.machines)
	}
	if e.Alive < 1 {
		s.add("epoch [%.9g, %.9g) with alive=%d", e.Start, e.End, e.Alive)
	}
}

// ObserveCompletion implements core.Observer.
func (s *StreamMonitor) ObserveCompletion(t float64, job int, flow float64) {
	s.completes++
	if job < 0 || job >= len(s.release) {
		s.add("completion for unknown job %d at %.9g", job, t)
		return
	}
	if s.completed[job] {
		s.add("job %d completed twice (second at %.9g)", job, t)
		return
	}
	s.completed[job] = true
	if flow < -tolBand(t) {
		s.add("job %d has negative flow %.9g", job, flow)
	}
	if min := s.size[job] / (s.maxSpeed * s.speed); flow+tolBand(min) < min {
		s.add("job %d flow %.9g below size/(s_max·speed) %.9g — faster than the fastest machine at speed %g allows",
			job, flow, min, s.speed)
	}
	if t+tolBand(t) < s.release[job] {
		s.add("job %d completes at %.9g before release %.9g", job, t, s.release[job])
	}
}

// ObserveDone implements core.Observer.
func (s *StreamMonitor) ObserveDone(res *core.Result) {
	if s.completes != s.arrivals {
		s.add("%d arrivals but %d completions", s.arrivals, s.completes)
	}
	// Streaming runs (core.RunStream) deliver a Result with nil per-job
	// slices by design — per-job flows were already checked one at a time
	// through ObserveCompletion — so the materialized-shape check only
	// applies when a Flow slice exists to count.
	if res.Flow != nil && len(res.Flow) != s.arrivals {
		s.add("result has %d flows for %d arrivals", len(res.Flow), s.arrivals)
	}
}
