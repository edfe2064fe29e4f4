package rrnorm_test

import (
	"math"
	"testing"

	"rrnorm"
)

func TestFacadeSimulate(t *testing.T) {
	in := rrnorm.NewInstance([]rrnorm.Job{
		{ID: 0, Release: 0, Size: 2},
		{ID: 1, Release: 0, Size: 2},
	})
	res, err := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 1, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Completion[0]-4) > 1e-9 || math.Abs(res.Completion[1]-4) > 1e-9 {
		t.Fatalf("RR completions: %v", res.Completion)
	}
	if _, err := rrnorm.Simulate(in, "NOPE", rrnorm.Options{Machines: 1, Speed: 1}); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestFacadePolicies(t *testing.T) {
	names := rrnorm.Policies()
	if len(names) != 12 {
		t.Fatalf("policies: %v", names)
	}
	p, err := rrnorm.NewPolicy("SRPT")
	if err != nil || !p.Clairvoyant() {
		t.Fatalf("SRPT: %v %v", p, err)
	}
	in := rrnorm.FromSpecMust("staircase:n=3", 1)
	if _, err := rrnorm.SimulateWith(in, p, rrnorm.Options{Machines: 1, Speed: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeNorms(t *testing.T) {
	if got := rrnorm.LkNorm([]float64{3, 4}, 2); math.Abs(got-5) > 1e-12 {
		t.Fatalf("L2 = %v", got)
	}
	if got := rrnorm.KthPowerSum([]float64{3, 4}, 2); math.Abs(got-25) > 1e-12 {
		t.Fatalf("sum = %v", got)
	}
}

func TestFacadeLowerBoundAndCertify(t *testing.T) {
	in := rrnorm.FromSpecMust("poisson:n=30,load=0.8,dist=exp,mean=1", 3)
	lb, err := rrnorm.LowerBound(in, 1, 2)
	if err != nil || lb <= 0 {
		t.Fatalf("LowerBound: %v %v", lb, err)
	}
	res, err := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 1, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if alg := rrnorm.KthPowerSum(res.Flow, 2); alg < lb {
		t.Fatalf("bound %v above RR's objective %v", lb, alg)
	}
	cert, err := rrnorm.Certify(in, 1, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !cert.Feasible || !cert.Lemma1OK || !cert.Lemma2OK {
		t.Fatalf("certificate should hold at theorem speed: %s", cert)
	}
}

func TestFromSpecMustPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rrnorm.FromSpecMust("definitely-not-a-kind", 1)
}

func TestFacadeAnalytics(t *testing.T) {
	in := rrnorm.FromSpecMust("bursts:bursts=2,size=3,period=5", 1)
	var rec rrnorm.SegmentRecorder
	res, err := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 2, Speed: 1, Observer: &rec})
	if err != nil {
		t.Fatal(err)
	}
	ff, err := rrnorm.FractionalFlows(res, rec.Segments)
	if err != nil || len(ff) != in.N() {
		t.Fatalf("FractionalFlows: %v %v", ff, err)
	}
	if g := rrnorm.Gantt(res, rec.Segments, 40); len(g) == 0 {
		t.Fatal("empty gantt")
	}
	ts := rrnorm.TimeStats(res, rec.Segments)
	if ts.BusyTime <= 0 || ts.AvgAlive <= 0 {
		t.Fatalf("TimeStats: %+v", ts)
	}
	if got := rrnorm.WeightedLkNorm([]float64{3, 4}, []float64{1, 1}, 2); math.Abs(got-5) > 1e-12 {
		t.Fatalf("WeightedLkNorm: %v", got)
	}
}
