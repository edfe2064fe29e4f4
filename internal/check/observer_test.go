package check

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
)

// TestObserversAgreeWithSegments is the streaming-pipeline differential
// test: over the same 1200-seed corpus as TestEnginesAgreeBulk, every
// observer-derived quantity — ℓk norms of flow (StreamNorm), overloaded
// time |T_o| and busy-period count (TimelineObserver), and the dual
// objective (WitnessObserver) — must agree with the Segment-derived
// post-processing it replaced at 1e-6, on both engines.
//
// The Segment-derived values necessarily come from the reference engine
// (a SegmentRecorder forces it), so the fast-engine leg doubles as a
// cross-engine check of the aggregate epochs the fast paths emit.
func TestObserversAgreeWithSegments(t *testing.T) {
	const seeds = 1200
	const tol = 1e-6
	ks := []int{1, 2, 3}
	agreeAt := func(a, b float64) bool {
		return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
	}
	comparisons := 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		pols := Policies(seed)
		p := pols[int(seed)%len(pols)] // one policy per seed bounds the cost

		// Segment-derived ground truth.
		var rec core.SegmentRecorder
		ro := opts
		ro.Engine = core.EngineReference
		ro.Observer = &rec
		ref, err := core.Run(in, p, ro)
		if err != nil {
			t.Fatalf("seed %d: recorded run: %v", seed, err)
		}
		wantNorm := make([]float64, len(ks))
		for i, k := range ks {
			wantNorm[i] = metrics.LkNorm(ref.Flow, k)
		}
		wantTS := core.ComputeTimeStats(ref, rec.Segments)

		for _, eng := range []core.EngineKind{core.EngineReference, core.EngineFast} {
			sn := metrics.NewStreamNorm(ks...)
			tl := stats.NewTimelineObserver(opts.Machines)
			oo := opts
			oo.Engine = eng
			oo.Observer = core.Multi(sn, tl)
			if _, err := fast.Run(in, p, oo); err != nil {
				t.Fatalf("seed %d %v: observed run: %v", seed, eng, err)
			}
			for i, k := range ks {
				if got := sn.Norm(k); !agreeAt(got, wantNorm[i]) {
					t.Fatalf("seed %d %s %v: L%d stream %.17g vs segment-derived %.17g",
						seed, p.Name(), eng, k, got, wantNorm[i])
				}
			}
			got := tl.Stats()
			if !agreeAt(got.OverloadedTime, wantTS.OverloadedTime) {
				t.Fatalf("seed %d %s %v: |T_o| stream %.17g vs segment-derived %.17g",
					seed, p.Name(), eng, got.OverloadedTime, wantTS.OverloadedTime)
			}
			if got.BusyPeriods != wantTS.BusyPeriods {
				t.Fatalf("seed %d %s %v: busy periods %d vs segment-derived %d",
					seed, p.Name(), eng, got.BusyPeriods, wantTS.BusyPeriods)
			}
			comparisons++
		}

		// Dual objective: witness observer vs dual.Build on a recorded RR
		// run (the certificate is RR's; the witness needs per-job epochs so
		// the engine dispatcher routes it to the reference engine itself).
		const k, eps = 2, 0.05
		// Empty and all-degenerate instances record no segments; Build
		// accepts their empty timeline as the witness does.
		var rrec core.SegmentRecorder
		dro := opts
		dro.Engine = core.EngineReference
		dro.Observer = &rrec
		rres, err := core.Run(in, policy.NewRR(), dro)
		if err != nil {
			t.Fatalf("seed %d: recorded RR run: %v", seed, err)
		}
		want, err := dual.Build(rres, rrec.Segments, k, eps)
		if err != nil {
			t.Fatalf("seed %d: dual.Build: %v", seed, err)
		}
		w, err := dual.NewWitnessObserver(k, eps, opts.Machines)
		if err != nil {
			t.Fatalf("seed %d: witness: %v", seed, err)
		}
		wo := opts
		wo.Observer = w
		if _, err := fast.Run(in, policy.NewRR(), wo); err != nil {
			t.Fatalf("seed %d: witness run: %v", seed, err)
		}
		cert, err := w.Certificate()
		if err != nil {
			t.Fatalf("seed %d: certificate: %v", seed, err)
		}
		if !agreeAt(cert.ObjectiveFraction, want.ObjectiveFraction) {
			t.Fatalf("seed %d: dual objective fraction witness %.17g vs Build %.17g",
				seed, cert.ObjectiveFraction, want.ObjectiveFraction)
		}
		if cert.Feasible != want.Feasible {
			t.Fatalf("seed %d: dual feasibility witness %v vs Build %v", seed, cert.Feasible, want.Feasible)
		}
		comparisons++
	}
	t.Logf("%d observer-vs-segment comparisons across %d seeds", comparisons, seeds)
}
