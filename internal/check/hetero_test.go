package check

import (
	"math"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/policy"
)

// The heterogeneous-model walls: the same 1200-seed random corpus as the
// identical-machine walls, but with an explicit speed vector (and sometimes
// a preemption cost) attached. RR is the only policy with a fast path under
// these models, so the differential test pins RR's water-filling path
// against the reference engine (the RR-random-model digest rows pin its
// output bits), while the property tests below cover every machine-aware
// policy through the reference engine.

// TestEnginesAgreeHeteroBulk holds fast-vs-reference RR to the 1e-6
// completion bar across 1200 random instances under random heterogeneous
// machine models.
func TestEnginesAgreeHeteroBulk(t *testing.T) {
	const seeds = 1200
	tol := DefaultTolerances()
	var worst float64
	comparisons := 0
	for seed := uint64(0); seed < seeds; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		opts.MachineModel = RandomMachineModel(seed, opts.Machines)
		rep, err := Compare(in, policy.NewRR(), opts, tol)
		if err != nil {
			t.Fatalf("seed %d speeds=%v: %v", seed, opts.MachineModel.Speeds, err)
		}
		if !rep.OK() {
			t.Fatalf("seed %d (n=%d m=%d speeds=%v pc=%g): %s",
				seed, in.N(), opts.Machines, opts.MachineModel.Speeds, opts.MachineModel.PreemptCost, rep)
		}
		if rep.MaxCompletionDiff > worst {
			worst = rep.MaxCompletionDiff
		}
		comparisons++
	}
	t.Logf("%d heterogeneous engine comparisons, max completion diff %.3g", comparisons, worst)
	if worst > 1e-6 {
		t.Fatalf("max completion diff %.3g exceeds the 1e-6 acceptance bar", worst)
	}
}

// TestHeteroFlowLowerBound is the generalized per-job bound: a job runs on
// at most one machine at a time, so its flow is at least
// Size/(maxSpeed·speed) under any policy. Checked for every machine-aware
// policy over random instances and models (non-RR policies route to the
// reference engine automatically).
func TestHeteroFlowLowerBound(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		opts.MachineModel = RandomMachineModel(seed, opts.Machines)
		opts.MachineModel.PreemptCost = 0 // preempted work only raises flows; keep the bound exact
		maxS := 1.0
		for _, s := range opts.MachineModel.Speeds {
			if s > maxS {
				maxS = s
			}
		}
		for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS(), policy.NewHybrid(0.5, 3)} {
			res, err := fast.Run(in, p, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name(), err)
			}
			for i, f := range res.Flow {
				min := res.Jobs[i].Size / (maxS * opts.Speed)
				if f < min*(1-1e-9)-1e-12 {
					t.Fatalf("seed %d %s job %d: flow %.17g below lower bound %.17g (size %g, maxSpeed %g, speed %g)",
						seed, p.Name(), i, f, min, res.Jobs[i].Size, maxS, opts.Speed)
				}
			}
		}
	}
}

// epochCapObs records epoch rate sums for the capacity property.
type epochCapObs struct {
	eps []core.Epoch
}

func (o *epochCapObs) ObserveArrival(t float64, job int, j core.Job)      {}
func (o *epochCapObs) ObserveEpoch(e *core.Epoch)                         { o.eps = append(o.eps, *e) }
func (o *epochCapObs) ObserveCompletion(t float64, job int, flow float64) {}
func (o *epochCapObs) ObserveDone(res *core.Result)                       {}

// TestHeteroCapacityBound: no epoch's pre-augmentation rate sum may exceed
// the aggregate capacity Σ speeds, and with alive ≤ m jobs it may not exceed
// the alive fastest machines' prefix sum either.
func TestHeteroCapacityBound(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		in := RandomInstance(seed)
		opts := RandomOptions(seed)
		opts.MachineModel = RandomMachineModel(seed, opts.Machines)
		var env core.MachineEnv
		core.BuildMachineEnv(&opts, &env)
		for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewHybrid(0.3, 0)} {
			obs := &epochCapObs{}
			o := opts
			o.Observer = obs
			if _, err := fast.Run(in, p, o); err != nil {
				t.Fatalf("seed %d %s: %v", seed, p.Name(), err)
			}
			for _, e := range obs.eps {
				if e.RateSum > env.TotalSpeed()+1e-6 {
					t.Fatalf("seed %d %s: epoch [%g,%g) rate sum %.17g exceeds total capacity %.17g",
						seed, p.Name(), e.Start, e.End, e.RateSum, env.TotalSpeed())
				}
				if !e.Coarse && e.Alive <= env.M && e.RateSum > env.PrefixSpeed(e.Alive)+1e-6 {
					t.Fatalf("seed %d %s: epoch [%g,%g) alive=%d rate sum %.17g exceeds %d-fastest capacity %.17g",
						seed, p.Name(), e.Start, e.End, e.Alive, e.RateSum, e.Alive, env.PrefixSpeed(e.Alive))
				}
			}
		}
	}
}

// TestHeteroSingleMachineIdentity: one machine of speed c is the same system
// as one unit machine with the augmentation factor scaled by c — busy
// periods, and hence completions, must agree to float accuracy. The speeds
// are powers of two so the only difference is multiplication order.
func TestHeteroSingleMachineIdentity(t *testing.T) {
	for seed := uint64(0); seed < 300; seed++ {
		in := RandomInstance(seed)
		if in.N() == 0 {
			continue
		}
		c := []float64{0.5, 2, 4}[seed%3]
		for _, p := range []core.Policy{policy.NewRR(), policy.NewSRPT(), policy.NewFCFS(), policy.NewHybrid(0.25, 2)} {
			het, err := fast.Run(in, p, core.Options{
				Machines: 1, Speed: 1, MachineModel: core.Machines{Speeds: []float64{c}},
			})
			if err != nil {
				t.Fatalf("seed %d %s hetero: %v", seed, p.Name(), err)
			}
			ident, err := fast.Run(in, p, core.Options{Machines: 1, Speed: c})
			if err != nil {
				t.Fatalf("seed %d %s identical: %v", seed, p.Name(), err)
			}
			for i := range het.Completion {
				a, b := het.Completion[i], ident.Completion[i]
				if d := math.Abs(a - b); d > 1e-9*(1+math.Abs(b)) {
					t.Fatalf("seed %d %s job %d: speed-[%g] machine completes at %.17g, unit machine at speed %g at %.17g",
						seed, p.Name(), i, c, a, c, b)
				}
			}
		}
	}
}
