//go:build linux && !race

package rrnorm_test

import (
	"context"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"rrnorm/internal/batch"
	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
)

// The gates in this file read wall time or peak RSS, so race builds leave
// them out: under the race detector such a reading measures the detector,
// and a materialized 10⁷-job instance would need gigabytes. The RSS
// reading comes from /proc, hence linux.

// childEnv carries a child body's argument into a re-exec of the test
// binary that runs one test (see runChild). A 10⁷-job run is sensitive to
// allocator fragmentation and a peak-RSS reading covers the whole process,
// so the ten-million-job gates each measure in a fresh process, not after
// whichever earlier test left the biggest heap.
const childEnv = "RRNORM_TEST_CHILD"

// runChild re-executes the test binary to run only test, with childEnv set
// to arg, and fails t with the child's output if the child fails. It
// returns what the child printed before its closing PASS line.
func runChild(t *testing.T, test, arg string) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run", "^"+test+"$")
	cmd.Env = append(os.Environ(), childEnv+"="+arg)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s child %s=%s: %v\n%s", test, childEnv, arg, err, out)
	}
	return strings.TrimSuffix(string(out), "PASS\n")
}

// rrScaleBound caps fast RR's ns/job at n=10⁷ as a multiple of its ns/job
// at n=10⁵ in the same process. Over 12 child runs per m on a 2-vCPU Xeon
// KVM host the ratio read 0.99–1.32 (m=1) and 1.00–1.34 (m=8), so the
// bound leaves room for that host's noise. A quadratic step reads 100; a
// log n factor on all of the engine's work, 1.4, hides in the noise.
const rrScaleBound = 1.6

// TestRRTenMillionJobs is the scale gate behind the n=10⁷ claims: in a
// child process per m ∈ {1, 8}, fast RR's ns/job in a steady run at n=10⁷
// stays within rrScaleBound of its best over 20 steady runs at n=10⁵, and
// steady runs allocate nothing. Absolute speed is engine-sweep's
// rr_ns_per_job in perfbench and TestBenchSmokeRatchet's ratio to the
// reference engine.
func TestRRTenMillionJobs(t *testing.T) {
	if arg := os.Getenv(childEnv); arg != "" {
		m, err := strconv.Atoi(arg)
		if err != nil {
			t.Fatalf("%s=%q: %v", childEnv, arg, err)
		}
		// The engine runs on one goroutine. On a 2-vCPU Xeon KVM host a
		// second P made the 10⁷-job runs 3–27% slower in six alternating
		// pairs, and the runtime's own goroutines allocated in steady runs.
		runtime.GOMAXPROCS(1)
		big := rrSteadyRuns(t, 10_000_000, m, 1)
		small := rrSteadyRuns(t, 100_000, m, 20)
		ratio := big / small
		fmt.Printf("RR m=%d: %.1f ns/job at n=10⁷, %.1f at n=10⁵: %.2fx (bound %.2fx)\n",
			m, big, small, ratio, rrScaleBound)
		if ratio > rrScaleBound {
			t.Errorf("RR m=%d: %.1f ns/job at n=10⁷ is %.2fx the %.1f at n=10⁵, bound is %.2fx",
				m, big, ratio, small, rrScaleBound)
		}
		return
	}
	if testing.Short() {
		t.Skip("times 10⁷-job runs; skipped under -short")
	}
	for _, m := range []int{1, 8} {
		t.Log(strings.TrimSpace(runChild(t, "TestRRTenMillionJobs", strconv.Itoa(m))))
	}
}

// rrSteadyRuns times reps steady runs of fast RR on a warmed workspace
// over engineInstance(n, m, 0.9) and returns the fastest in ns/job: on a
// shared host, noise only ever slows a run. It fails t unless the run
// with the fewest heap allocations made none. The engine does the same
// work on every steady run, so an allocation of its own shows in all of
// them; one in a single run is the runtime's.
func rrSteadyRuns(t *testing.T, n, m, reps int) float64 {
	in := engineInstance(n, m, 0.9)
	ws := core.NewWorkspace()
	p := policy.NewRR()
	opts := core.Options{Machines: m, Speed: 1, Engine: core.EngineFast}
	if _, err := fast.RunWS(in, p, opts, ws); err != nil {
		t.Fatal(err)
	}
	runtime.GC() // settle the warm-up's garbage so the timed runs are the engine's
	best := time.Duration(math.MaxInt64)
	least := uint64(math.MaxUint64)
	for range reps {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if _, err := fast.RunWS(in, p, opts, ws); err != nil {
			t.Fatal(err)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		best = min(best, d)
		least = min(least, ms1.Mallocs-ms0.Mallocs)
	}
	if least > 0 {
		t.Errorf("RR n=%d m=%d: %d allocs in each steady run, budget is 0", n, m, least)
	}
	return float64(best.Nanoseconds()) / float64(n)
}

// streamRSSLimit bounds the peak RSS of a process that replays
// streamReplayN jobs: far below the ~320 MB a materialized Instance of
// the same jobs would take before the engine touches it, far above what
// the alive set and the Go runtime need.
const (
	streamReplayN  = 10_000_000
	streamRSSLimit = 256 << 20
)

// TestStreamReplayRSS is the bounded-memory gate behind the streaming
// JobSource path: a child process that pulls streamReplayN jobs one at a
// time through fast RR with a StreamNorm attached peaks under
// streamRSSLimit, so the path never buffers the trace.
func TestStreamReplayRSS(t *testing.T) {
	if os.Getenv(childEnv) != "" {
		sn := metrics.NewStreamNorm(1, 2, 3)
		t0 := time.Now()
		sum, err := fast.RunStream(streamSource(streamReplayN), policy.NewRR(),
			core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast, Observer: sn}, core.NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(t0)
		if sum.N != streamReplayN || sn.N() != streamReplayN {
			t.Fatalf("streamed %d jobs (observer saw %d), want %d", sum.N, sn.N(), streamReplayN)
		}
		rss := peakRSS(t)
		fmt.Printf("streamed %d jobs in %v: peak RSS %.1f MiB (bound %d MiB)\n",
			streamReplayN, wall.Round(time.Millisecond), float64(rss)/(1<<20), streamRSSLimit>>20)
		if rss > streamRSSLimit {
			t.Errorf("peak RSS %d bytes exceeds the %d-byte bound", rss, streamRSSLimit)
		}
		return
	}
	if testing.Short() {
		t.Skip("replays 10⁷ jobs; skipped under -short")
	}
	t.Log(strings.TrimSpace(runChild(t, "TestStreamReplayRSS", "1")))
}

// peakRSS returns this process's peak resident set, VmHWM in
// /proc/self/status. A child's ru_maxrss would not do, read by the parent
// or by the child itself: Linux charges the parent's resident set, which
// the child shares until exec, to it.
func peakRSS(t *testing.T) int64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				t.Fatalf("VmHWM line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Fatal("no VmHWM line in /proc/self/status")
	return 0
}

// TestShardedSRPTSpeedup gates batch.RunSharded's reason to exist: with
// GOMAXPROCS ≥ 4 workers, the machine-sharded SRPT run at n=10⁶ on m=8 is
// at least 3× faster than the serial fast engine's. With fewer CPUs the
// gate cannot arm, and the test says so.
func TestShardedSRPTSpeedup(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		t.Skipf("gate unarmed: GOMAXPROCS is %d, the ≥3x speedup needs ≥ 4", workers)
	}
	if testing.Short() {
		t.Skip("times n=10⁶ runs; skipped under -short")
	}
	const n, m = 1_000_000, 8
	in := engineInstance(n, m, 0.9)
	opts := core.Options{Machines: m, Speed: 1, Engine: core.EngineFast}
	ws := core.NewWorkspace()
	sp := policy.NewSRPT()
	serial, sharded := alternateMedians(t, 3,
		func() error { _, err := fast.RunWS(in, sp, opts, ws); return err },
		func() error {
			_, err := batch.RunSharded(context.Background(), in, "SRPT", opts, workers, ws, nil)
			return err
		})
	speedup := float64(serial) / float64(sharded)
	t.Logf("SRPT n=%d m=%d: serial %v, sharded over %d workers %v (%.2fx)", n, m, serial, workers, sharded, speedup)
	if speedup < 3 {
		t.Errorf("sharded SRPT is %.2fx the serial run with %d workers, gate is ≥3x", speedup, workers)
	}
}
