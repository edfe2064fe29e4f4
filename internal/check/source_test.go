package check

import (
	"fmt"
	"path/filepath"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
)

// The streaming differential wall: a materialized run (core/fast RunWS over
// an Instance) and a streaming run (RunStream over the equivalent
// JobSource) execute the same event loop per engine, so every output they
// share must be BYTE-identical — not within tolerance. These tests pin that
// claim over the same 1200-seed corpus as TestEnginesAgreeBulk plus every
// committed hunt witness, on both engines, under -race in CI.

// wallObs records the full observer event stream with bit-exact values.
// Epoch scalars are copied out of the engine-owned *Epoch (copy-or-drop);
// the Jobs/Rates slices are deliberately dropped — the streaming fast paths
// never populate them and the wall compares like modes per engine.
type wallObs struct {
	arrT  []float64
	arrJ  []int
	arrR  []float64 // Job.Release as delivered
	arrS  []float64 // Job.Size as delivered
	eps   []core.Epoch
	compT []float64
	compJ []int
	flow  []float64
	done  int // ObserveDone count
	doneP string
	doneE int // Events from the done result
}

func (o *wallObs) ObserveArrival(t float64, job int, j core.Job) {
	o.arrT = append(o.arrT, t)
	o.arrJ = append(o.arrJ, job)
	o.arrR = append(o.arrR, j.Release)
	o.arrS = append(o.arrS, j.Size)
}

func (o *wallObs) ObserveEpoch(e *Epoch) {
	o.eps = append(o.eps, core.Epoch{Start: e.Start, End: e.End, Alive: e.Alive, RateSum: e.RateSum})
}

func (o *wallObs) ObserveCompletion(t float64, job int, flow float64) {
	o.compT = append(o.compT, t)
	o.compJ = append(o.compJ, job)
	o.flow = append(o.flow, flow)
}

func (o *wallObs) ObserveDone(res *core.Result) {
	o.done++
	o.doneP = res.Policy
	o.doneE = res.Events
}

// Epoch aliases core.Epoch so wallObs's ObserveEpoch signature matches the
// Observer interface without an extra import rename.
type Epoch = core.Epoch

// runWall executes the materialized and streaming runs of (in, p, opts) on
// one engine and fails the test on any non-bit-identical output.
func runWall(t *testing.T, label string, in *core.Instance, p core.Policy, opts core.Options, eng core.EngineKind) {
	t.Helper()
	opts.Engine = eng

	mo := opts
	mrec := &wallObs{}
	msn := metrics.NewStreamNorm(1, 2, 3)
	mo.Observer = core.Multi(msn, mrec)
	res, err := fast.Run(in, p, mo)
	if err != nil {
		t.Fatalf("%s: materialized run: %v", label, err)
	}

	so := opts
	srec := &wallObs{}
	ssn := metrics.NewStreamNorm(1, 2, 3)
	so.Observer = core.Multi(ssn, srec)
	sum, err := fast.RunStream(core.NewInstanceSource(in), p, so, nil)
	if err != nil {
		t.Fatalf("%s: streaming run: %v", label, err)
	}

	// Aggregate outputs: bit-equal, no tolerance.
	if sum.Policy != res.Policy || sum.Machines != res.Machines || sum.Speed != res.Speed {
		t.Fatalf("%s: header mismatch: stream {%s %d %v} vs materialized {%s %d %v}",
			label, sum.Policy, sum.Machines, sum.Speed, res.Policy, res.Machines, res.Speed)
	}
	if sum.N != in.N() {
		t.Fatalf("%s: stream N=%d, want %d", label, sum.N, in.N())
	}
	if sum.Completed != len(res.Completion) {
		t.Fatalf("%s: stream Completed=%d, materialized completed %d", label, sum.Completed, len(res.Completion))
	}
	if sum.Events != res.Events {
		t.Fatalf("%s: stream Events=%d, materialized %d", label, sum.Events, res.Events)
	}
	if sum.Makespan != res.Makespan() {
		t.Fatalf("%s: stream Makespan=%.17g, materialized %.17g", label, sum.Makespan, res.Makespan())
	}
	if sum.MaxFlow != res.MaxFlow() {
		t.Fatalf("%s: stream MaxFlow=%.17g, materialized %.17g", label, sum.MaxFlow, res.MaxFlow())
	}

	// Per-job flows: reassemble from the streaming completions (seq is the
	// normalized index) and compare against Result.Flow bit for bit.
	if len(srec.flow) != len(res.Flow) {
		t.Fatalf("%s: stream delivered %d completions, materialized %d", label, len(srec.flow), len(res.Flow))
	}
	flows := make([]float64, len(res.Flow))
	seen := make([]bool, len(res.Flow))
	for i, seq := range srec.compJ {
		if seq < 0 || seq >= len(flows) || seen[seq] {
			t.Fatalf("%s: streaming completion #%d has bad/duplicate seq %d", label, i, seq)
		}
		seen[seq] = true
		flows[seq] = srec.flow[i]
	}
	for i := range flows {
		if flows[i] != res.Flow[i] {
			t.Fatalf("%s: job %d flow: stream %.17g vs materialized %.17g", label, i, flows[i], res.Flow[i])
		}
	}

	// StreamNorm accumulates in completion order, which is identical across
	// the two modes, so the norms are bit-equal too.
	for _, k := range []int{1, 2, 3} {
		if a, b := ssn.Norm(k), msn.Norm(k); a != b {
			t.Fatalf("%s: L%d: stream %.17g vs materialized %.17g", label, k, a, b)
		}
	}

	// Observer event streams: same loop, same callbacks, same order.
	if d := eventsDiff(srec, mrec); d != "" {
		t.Fatalf("%s: stream vs materialized: %s", label, d)
	}
	if d := epochsDiff(srec, mrec); d != "" {
		t.Fatalf("%s: stream vs materialized: %s", label, d)
	}
}

// eventsDiff describes the first difference between two recorders'
// ObserveDone headers, arrivals and completions, compared bit for bit, or
// returns "" when they agree. Each recorder must have seen exactly one
// ObserveDone.
func eventsDiff(a, b *wallObs) string {
	if a.done != 1 || b.done != 1 {
		return fmt.Sprintf("ObserveDone fired %d / %d times, want 1", a.done, b.done)
	}
	if a.doneP != b.doneP || a.doneE != b.doneE {
		return fmt.Sprintf("ObserveDone header {%s %d} vs {%s %d}", a.doneP, a.doneE, b.doneP, b.doneE)
	}
	if len(a.arrT) != len(b.arrT) {
		return fmt.Sprintf("%d arrivals vs %d", len(a.arrT), len(b.arrT))
	}
	for i := range a.arrT {
		if a.arrT[i] != b.arrT[i] || a.arrJ[i] != b.arrJ[i] || a.arrR[i] != b.arrR[i] || a.arrS[i] != b.arrS[i] {
			return fmt.Sprintf("arrival %d: (t=%.17g job=%d r=%.17g s=%.17g) vs (t=%.17g job=%d r=%.17g s=%.17g)",
				i, a.arrT[i], a.arrJ[i], a.arrR[i], a.arrS[i], b.arrT[i], b.arrJ[i], b.arrR[i], b.arrS[i])
		}
	}
	if len(a.compT) != len(b.compT) {
		return fmt.Sprintf("%d completions vs %d", len(a.compT), len(b.compT))
	}
	for i := range a.compT {
		if a.compT[i] != b.compT[i] || a.compJ[i] != b.compJ[i] || a.flow[i] != b.flow[i] {
			return fmt.Sprintf("completion %d: (t=%.17g job=%d flow=%.17g) vs (t=%.17g job=%d flow=%.17g)",
				i, a.compT[i], a.compJ[i], a.flow[i], b.compT[i], b.compJ[i], b.flow[i])
		}
	}
	return ""
}

// epochsDiff describes the first difference between two recorders' epoch
// streams, compared bit for bit, or returns "" when they agree.
func epochsDiff(a, b *wallObs) string {
	if len(a.eps) != len(b.eps) {
		return fmt.Sprintf("%d epochs vs %d", len(a.eps), len(b.eps))
	}
	for i := range a.eps {
		x, y := a.eps[i], b.eps[i]
		if x.Start != y.Start || x.End != y.End || x.Alive != y.Alive || x.RateSum != y.RateSum {
			return fmt.Sprintf("epoch %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// TestStreamingWallBulk drives the 1200-seed random corpus through the
// JobSource path on both engines and demands bit-identical outputs against
// the materialized runs — per-job flows, stream norms, aggregate summary
// fields and the complete observer event streams.
func TestStreamingWallBulk(t *testing.T) {
	const seeds = 1200
	runs := 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		for _, p := range Policies(seed) {
			for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
				runWall(t, wallLabel(seed, p.Name(), eng), in, p, opts, eng)
				runs++
			}
		}
	}
	t.Logf("%d streaming-vs-materialized runs across %d seeds, all bit-identical", runs, seeds)
}

func wallLabel(seed uint64, policy string, eng core.EngineKind) string {
	e := "ref"
	if eng == core.EngineFast {
		e = "fast"
	}
	return "seed " + itoa(int(seed)) + " " + policy + " " + e
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestStreamingWallCorpus replays every committed hunt regression witness —
// the shrunk adversarial instances — through the same wall. These instances
// were selected for being hard on the engines, so they are exactly the ones
// the streaming path must not perturb.
func TestStreamingWallCorpus(t *testing.T) {
	entries, err := hunt.LoadCorpus(filepath.Join("..", "..", "testdata", "corpus"))
	if err != nil {
		t.Fatalf("loading corpus: %v", err)
	}
	if len(entries) == 0 {
		t.Fatal("no corpus entries found: the committed witnesses are missing")
	}
	runs := 0
	for _, e := range entries {
		in := e.Instance()
		opts := core.Options{Machines: e.Machines, Speed: e.Speed}
		for _, p := range Policies(e.Seed) {
			for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
				runWall(t, e.Name+" "+p.Name(), in, p, opts, eng)
				runs++
			}
		}
	}
	t.Logf("%d streaming-vs-materialized runs across %d corpus witnesses", runs, len(entries))
}
