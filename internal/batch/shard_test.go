package batch

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

func shardedInstance(seed uint64, n, m int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(seed), n, m, 0.9, workload.ExpSizes{M: 1})
}

var shardedPolicies = []string{"SRPT", "SJF", "FCFS"}

// TestShardedMatchesPerShardOracle pins the sharded runner's semantics: the
// merged result must equal, byte for byte, running each shard's subsequence
// serially through fast.Run at Machines = 1 and scattering by the
// documented bijection g = s + l·m.
func TestShardedMatchesPerShardOracle(t *testing.T) {
	for _, m := range []int{1, 2, 5} {
		for _, name := range shardedPolicies {
			in := shardedInstance(uint64(7*m), 300, m)
			opts := core.Options{Machines: m, Speed: 1.25}
			got, err := RunSharded(context.Background(), in, name, opts, 2, nil, nil)
			if err != nil {
				t.Fatalf("m=%d %s: RunSharded: %v", m, name, err)
			}
			if want := name + "+shard"; got.Policy != want {
				t.Fatalf("m=%d %s: Policy=%q, want %q", m, name, got.Policy, want)
			}

			norm := core.NewInstance(in.Jobs)
			n := norm.N()
			wantC := make([]float64, n)
			wantF := make([]float64, n)
			wantEvents := 0
			for s := 0; s < m; s++ {
				var jobs []core.Job
				for g := s; g < n; g += m {
					jobs = append(jobs, norm.Jobs[g])
				}
				p, err := policy.New(name)
				if err != nil {
					t.Fatal(err)
				}
				res, err := fast.Run(&core.Instance{Jobs: jobs}, p, core.Options{Machines: 1, Speed: opts.Speed})
				if err != nil {
					t.Fatalf("m=%d %s shard %d: %v", m, name, s, err)
				}
				for l := range res.Completion {
					g := s + l*m
					wantC[g] = res.Completion[l]
					wantF[g] = res.Flow[l]
				}
				wantEvents += res.Events
			}
			if got.Events != wantEvents {
				t.Fatalf("m=%d %s: Events=%d, want %d", m, name, got.Events, wantEvents)
			}
			for g := 0; g < n; g++ {
				if got.Completion[g] != wantC[g] || got.Flow[g] != wantF[g] {
					t.Fatalf("m=%d %s: job %d: got (C=%.17g F=%.17g), want (C=%.17g F=%.17g)",
						m, name, g, got.Completion[g], got.Flow[g], wantC[g], wantF[g])
				}
			}
		}
	}
}

// TestShardedWorkerCountInvariance holds the merged result — per-job
// outputs, event counts and the shard-order StreamNorm fold — byte-identical
// across worker counts, the determinism contract of the sharded path. CI
// runs it under -race, which also makes it the data-race canary for the
// concurrent scatter writes.
func TestShardedWorkerCountInvariance(t *testing.T) {
	in := shardedInstance(42, 800, 8)
	opts := core.Options{Machines: 8, Speed: 1}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	type outcome struct {
		comp, flow []float64
		events     int
		norms      [3]float64
	}
	var outs []outcome
	for _, name := range shardedPolicies {
		outs = outs[:0]
		for _, workers := range workerCounts {
			sns := make([]*metrics.StreamNorm, opts.Machines)
			obsFor := func(s int) core.Observer {
				sns[s] = metrics.NewStreamNorm(1, 2, 3)
				return sns[s]
			}
			res, err := RunSharded(context.Background(), in, name, opts, workers, nil, obsFor)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			merged := metrics.NewStreamNorm(1, 2, 3)
			for _, sn := range sns {
				merged.Merge(sn)
			}
			o := outcome{
				comp:   append([]float64(nil), res.Completion...),
				flow:   append([]float64(nil), res.Flow...),
				events: res.Events,
			}
			for i, k := range []int{1, 2, 3} {
				o.norms[i] = merged.Norm(k)
			}
			if merged.N() != len(res.Flow) {
				t.Fatalf("%s workers=%d: merged StreamNorm saw %d completions, want %d", name, workers, merged.N(), len(res.Flow))
			}
			// The merged fold must agree with the batch norm over the merged
			// flows (same tolerance contract as StreamNorm vs LkNorm).
			for _, k := range []int{1, 2, 3} {
				batch, stream := metrics.LkNorm(res.Flow, k), merged.Norm(k)
				if rel := math.Abs(batch-stream) / math.Max(batch, 1e-300); rel > 1e-9 {
					t.Fatalf("%s workers=%d: L%d merged %.17g vs batch %.17g (rel %g)", name, workers, k, stream, batch, rel)
				}
			}
			outs = append(outs, o)
		}
		base := outs[0]
		for i, o := range outs[1:] {
			if o.events != base.events || o.norms != base.norms {
				t.Fatalf("%s: workers=%d diverges from workers=1: events %d vs %d, norms %v vs %v",
					name, workerCounts[i+1], o.events, base.events, o.norms, base.norms)
			}
			for g := range base.comp {
				if o.comp[g] != base.comp[g] || o.flow[g] != base.flow[g] {
					t.Fatalf("%s: workers=%d job %d differs from workers=1", name, workerCounts[i+1], g)
				}
			}
		}
	}
}

// TestShardedRejects covers the option and policy gates.
func TestShardedRejects(t *testing.T) {
	in := shardedInstance(1, 50, 2)
	good := core.Options{Machines: 2, Speed: 1}

	if _, err := RunSharded(context.Background(), in, "RR", good, 1, nil, nil); !errors.Is(err, ErrNotShardable) {
		t.Fatalf("RR: err=%v, want ErrNotShardable", err)
	}
	bad := good
	bad.Machines = 0
	if _, err := RunSharded(context.Background(), in, "SRPT", bad, 1, nil, nil); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("Machines=0: err=%v, want ErrBadOptions", err)
	}
	bad = good
	bad.Speed = math.Inf(1)
	if _, err := RunSharded(context.Background(), in, "SRPT", bad, 1, nil, nil); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("Speed=+Inf: err=%v, want ErrBadOptions", err)
	}
	bad = good
	bad.Observer = metrics.NewStreamNorm(1)
	if _, err := RunSharded(context.Background(), in, "SRPT", bad, 1, nil, nil); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("Options.Observer: err=%v, want ErrBadOptions", err)
	}
	bad = good
	bad.Observer = &core.SegmentRecorder{}
	if _, err := RunSharded(context.Background(), in, "SRPT", bad, 1, nil, nil); !errors.Is(err, core.ErrBadOptions) {
		t.Fatalf("SegmentRecorder: err=%v, want ErrBadOptions", err)
	}
}

// TestShardedDegenerate covers empty instances and more machines than jobs.
func TestShardedDegenerate(t *testing.T) {
	empty := &core.Instance{}
	res, err := RunSharded(context.Background(), empty, "SRPT", core.Options{Machines: 4, Speed: 1}, 2, nil, nil)
	if err != nil {
		t.Fatalf("empty: %v", err)
	}
	if len(res.Completion) != 0 || res.Events != 0 {
		t.Fatalf("empty: got %d completions, %d events", len(res.Completion), res.Events)
	}

	small := shardedInstance(3, 5, 1)
	res, err = RunSharded(context.Background(), small, "FCFS", core.Options{Machines: 16, Speed: 1}, 3, nil, nil)
	if err != nil {
		t.Fatalf("m>n: %v", err)
	}
	for g, c := range res.Completion {
		// With m > n every job has its own machine: completion is release
		// plus size (speed 1), never delayed by queueing.
		want := res.Jobs[g].Release + res.Jobs[g].Size
		if math.Abs(c-want) > 1e-9 {
			t.Fatalf("m>n: job %d completes at %.17g, want %.17g", g, c, want)
		}
	}
}

// TestShardedCancellation: a canceled context aborts the run with the
// context's error.
func TestShardedCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	in := shardedInstance(9, 2000, 8)
	_, err := RunSharded(ctx, in, "SRPT", core.Options{Machines: 8, Speed: 1}, 2, nil, nil)
	if err == nil {
		t.Fatal("canceled context: err=nil")
	}
}
