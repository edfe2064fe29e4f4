package dual

import (
	"errors"
	"reflect"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// TestWitnessObserverMatchesBuild: the streaming witness shares Build's
// accumulation and finish code paths, so on the same schedule the two
// certificates must be identical — field for field, bit for bit.
func TestWitnessObserverMatchesBuild(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		n, m int
		k    int
		eps  float64
	}{
		{seed: 1, n: 120, m: 1, k: 2, eps: 0.05},
		{seed: 2, n: 200, m: 2, k: 3, eps: 0.1},
		{seed: 3, n: 80, m: 4, k: 1, eps: 0.02},
	} {
		in := workload.PoissonLoad(stats.NewRNG(tc.seed), tc.n, tc.m, 0.9, workload.ExpSizes{M: 1})
		w, err := NewWitnessObserver(tc.k, tc.eps, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		var rec core.SegmentRecorder
		res, err := core.Run(in, policy.NewRR(), core.Options{
			Machines: tc.m, Speed: Eta(tc.k, tc.eps), Observer: core.Multi(w, &rec),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Build(res, rec.Segments, tc.k, tc.eps)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w.Certificate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("seed=%d k=%d: witness certificate differs from Build\n witness: %+v\n build:   %+v",
				tc.seed, tc.k, got, want)
		}
	}
}

// TestWitnessObserverNoSegments: the certificate must come out of a run
// that records no Segment timeline (the point of the observer), and the
// needs-job-epochs capability must be declared so dispatchers route it to
// the reference engine.
func TestWitnessObserverNoSegments(t *testing.T) {
	in := workload.PoissonLoad(stats.NewRNG(5), 150, 1, 0.9, workload.ExpSizes{M: 1})
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !core.ObserverNeedsJobEpochs(w) {
		t.Fatal("WitnessObserver must need job epochs")
	}
	if _, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: Eta(2, 0.05), Observer: w}); err != nil {
		t.Fatal(err)
	}
	c, err := w.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	// Sanity on the certificate itself: at the paper's speed the dual must
	// be feasible with positive objective fraction.
	if !c.Feasible || c.ObjectiveFraction <= 0 {
		t.Fatalf("certificate unsound: %s", c)
	}
	// And it must equal the Segment-derived one from a fresh recorded run.
	var rec core.SegmentRecorder
	ref, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: Eta(2, 0.05), Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Build(ref, rec.Segments, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, want) {
		t.Errorf("segment-free certificate differs from Build on recorded run")
	}
}

func TestWitnessObserverErrors(t *testing.T) {
	if _, err := NewWitnessObserver(0, 0.05, 1); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := NewWitnessObserver(2, 0.5, 1); !errors.Is(err, ErrBadEps) {
		t.Fatalf("eps=0.5: %v", err)
	}
	if _, err := NewWitnessObserver(2, 0.05, 0); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("m=0: %v", err)
	}
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Certificate(); !errors.Is(err, ErrWitnessIncomplete) {
		t.Fatalf("certificate before run: %v", err)
	}
}

func TestWitnessObserverEmptyRun(t *testing.T) {
	w, err := NewWitnessObserver(2, 0.05, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(core.NewInstance(nil), policy.NewRR(), core.Options{Machines: 1, Speed: 1, Observer: w}); err != nil {
		t.Fatal(err)
	}
	c, err := w.Certificate()
	if err != nil {
		t.Fatal(err)
	}
	if !c.Feasible || c.ViolatingJob != -1 {
		t.Fatalf("empty-run certificate: %+v", c)
	}
}
