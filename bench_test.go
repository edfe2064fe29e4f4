package rrnorm_test

import (
	"fmt"
	"testing"

	"rrnorm"
	"rrnorm/internal/bcast"
	"rrnorm/internal/core"
	"rrnorm/internal/dual"
	"rrnorm/internal/exp"
	"rrnorm/internal/fast"
	"rrnorm/internal/lp"
	"rrnorm/internal/mcmf"
	"rrnorm/internal/opt"
	"rrnorm/internal/policy"
	"rrnorm/internal/quantum"
	"rrnorm/internal/spdup"
	"rrnorm/internal/stats"
	"rrnorm/internal/workload"
)

// --- engine/policy micro-benchmarks -----------------------------------------

// benchInstance is a shared 1000-job Poisson workload.
func benchInstance(n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(1), n, 1, 0.9, workload.ExpSizes{M: 1})
}

func benchPolicy(b *testing.B, name string, n, m int) {
	b.Helper()
	in := benchInstance(n)
	p, err := policy.New(name)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Machines: m, Speed: 1}
	ws := core.NewWorkspace()
	if _, err := core.RunWS(in, p, opts, ws); err != nil { // warm the workspace
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunWS(in, p, opts, ws); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n), "jobs/op")
}

func BenchmarkEngineRR(b *testing.B)             { benchPolicy(b, "RR", 1000, 1) }
func BenchmarkEngineSRPT(b *testing.B)           { benchPolicy(b, "SRPT", 1000, 1) }
func BenchmarkEngineSETF(b *testing.B)           { benchPolicy(b, "SETF", 1000, 1) }
func BenchmarkEngineFCFS(b *testing.B)           { benchPolicy(b, "FCFS", 1000, 1) }
func BenchmarkEngineMLFQ(b *testing.B)           { benchPolicy(b, "MLFQ", 1000, 1) }
func BenchmarkEngineRRMultiMachine(b *testing.B) { benchPolicy(b, "RR", 1000, 8) }

func BenchmarkEngineRRWithSegments(b *testing.B) {
	in := benchInstance(1000)
	rec := &core.SegmentRecorder{}
	opts := core.Options{Machines: 1, Speed: 1, Observer: rec}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Segments = nil
		if _, err := core.Run(in, policy.NewRR(), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineFastVsReference compares the event-driven fast engine
// against the step-based reference engine on the same RR workloads across
// three decades of instance size. The fast engine is O((n + completions)
// log n); the reference engine recomputes all alive-job rates on every
// event, so the gap widens with the alive-set size (higher load or larger
// n). The README records the measured speedups.
func BenchmarkEngineFastVsReference(b *testing.B) {
	for _, n := range []int{1_000, 10_000, 100_000} {
		in := workload.PoissonLoad(stats.NewRNG(1), n, 1, 0.98, workload.ExpSizes{M: 1})
		for _, eng := range []struct {
			name string
			kind core.EngineKind
		}{{"reference", core.EngineReference}, {"fast", core.EngineFast}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, eng.name), func(b *testing.B) {
				opts := core.Options{Machines: 1, Speed: 1, Engine: eng.kind}
				ws := core.NewWorkspace()
				if _, err := fast.RunWS(in, policy.NewRR(), opts, ws); err != nil { // warm the workspace
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := fast.RunWS(in, policy.NewRR(), opts, ws); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(n), "jobs/op")
			})
		}
	}
}

// --- substrate benchmarks ----------------------------------------------------

func BenchmarkMCMFTransportation(b *testing.B) {
	// 60 jobs × 200 slots transportation problem per iteration.
	rng := stats.NewRNG(2)
	const nJobs, nSlots = 60, 200
	costs := make([][]float64, nJobs)
	for i := range costs {
		costs[i] = make([]float64, nSlots)
		for j := range costs[i] {
			costs[i][j] = rng.Float64() * 100
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mcmf.NewGraph(2+nJobs+nSlots, nJobs+nSlots+nJobs*nSlots)
		var total int64
		for jb := 0; jb < nJobs; jb++ {
			supply := int64(10)
			total += supply
			g.AddEdge(0, 2+jb, supply, 0)
			for sl := 0; sl < nSlots; sl++ {
				g.AddEdge(2+jb, 2+nJobs+sl, supply, costs[jb][sl])
			}
		}
		for sl := 0; sl < nSlots; sl++ {
			g.AddEdge(2+nJobs+sl, 1, 5, 0)
		}
		if _, _, err := g.MinCostFlow(0, 1, total); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLPLowerBound(b *testing.B) {
	in := benchInstance(100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lp.KPowerLowerBound(in, 1, 2, lp.Options{Slots: 300, MaxUnits: 60000}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDualCertificate(b *testing.B) {
	in := benchInstance(300)
	var rec core.SegmentRecorder
	res, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: dual.Eta(2, 0.05), Observer: &rec})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dual.Build(res, rec.Segments, 2, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactOPT(b *testing.B) {
	in := workload.Poisson(stats.NewRNG(3), 6, 1, workload.UniformSizes{Lo: 0.5, Hi: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Exact(in, 2, opt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFacadeCertify(b *testing.B) {
	in := rrnorm.FromSpecMust("poisson:n=100,load=0.9", 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rrnorm.Certify(in, 1, 2, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpdupEQUI(b *testing.B) {
	in := spdup.HostileCascade(7, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spdup.Run(in, spdup.EQUI{}, spdup.Options{Machines: 8, Speed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBroadcastRRRequest(b *testing.B) {
	in := bcast.ZipfPoisson(stats.NewRNG(5), 500, 16, 0.9, 1.1, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bcast.Run(in, bcast.RRRequest{}, bcast.Options{Speed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantumRR(b *testing.B) {
	in := benchInstance(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quantum.Run(in, quantum.Options{Quantum: 0.1, SwitchCost: 0.001, Speed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- one benchmark per experiment (E1..E28) ----------------------------------
//
// These regenerate each table/figure of the evaluation (DESIGN.md §3) in
// Quick mode; run `rrbench` for the full-size versions.

func BenchmarkExperiments(b *testing.B) {
	for _, e := range exp.All() {
		e := e
		b.Run(e.ID, func(b *testing.B) {
			cfg := exp.Config{Seed: 42, Quick: true}
			for i := 0; i < b.N; i++ {
				tables, err := e.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if len(tables) == 0 {
					b.Fatal("no tables")
				}
			}
		})
	}
}

// BenchmarkScalingRR characterizes engine scaling across instance sizes.
func BenchmarkScalingRR(b *testing.B) {
	for _, n := range []int{100, 1000, 10000} {
		in := benchInstance(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Run(in, policy.NewRR(), core.Options{Machines: 1, Speed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
