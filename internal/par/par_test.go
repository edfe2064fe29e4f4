package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachRunsAll(t *testing.T) {
	var count int64
	seen := make([]int64, 100)
	err := ForEach(100, 8, func(i int) error {
		atomic.AddInt64(&count, 1)
		atomic.AddInt64(&seen[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d of 100", count)
	}
	for i, s := range seen {
		if s != 1 {
			t.Fatalf("index %d ran %d times", i, s)
		}
	}
}

func TestForEachFirstErrorByIndex(t *testing.T) {
	e3 := errors.New("three")
	e7 := errors.New("seven")
	err := ForEach(10, 4, func(i int) error {
		switch i {
		case 7:
			return e7
		case 3:
			return e3
		}
		return nil
	})
	if !errors.Is(err, e3) {
		t.Fatalf("want lowest-index error, got %v", err)
	}
}

func TestForEachEmptyAndDefaults(t *testing.T) {
	if err := ForEach(0, 4, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	ran := int64(0)
	if err := ForEach(5, 0, func(int) error { atomic.AddInt64(&ran, 1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran != 5 {
		t.Fatalf("ran %d", ran)
	}
}

func TestMapOrdered(t *testing.T) {
	out, err := Map(20, 4, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapDeterministicUnderConcurrency(t *testing.T) {
	f := func(i int) (float64, error) { return float64(i) * 1.5, nil }
	a, _ := Map(200, 1, f)
	b, _ := Map(200, 16, f)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("parallelism changed results at %d", i)
		}
	}
}

func TestForEachCtxStopsSchedulingOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int64
	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- ForEachCtx(ctx, 1000, 2, func(_ context.Context, i int) error {
			atomic.AddInt64(&started, 1)
			<-release
			return nil
		})
	}()
	// Wait for both workers to be inside an iteration, cancel, then free
	// them: no further iterations may be scheduled.
	for atomic.LoadInt64(&started) < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := atomic.LoadInt64(&started); n > 4 {
		t.Fatalf("scheduled %d iterations after cancellation (want ≤ workers in flight)", n)
	}
}

func TestForEachCtxCompletedRunKeepsIterationError(t *testing.T) {
	eBad := errors.New("bad")
	err := ForEachCtx(context.Background(), 50, 8, func(_ context.Context, i int) error {
		if i == 11 {
			return eBad
		}
		return nil
	})
	if !errors.Is(err, eBad) {
		t.Fatalf("want iteration error, got %v", err)
	}
}

func TestForEachCtxNilContext(t *testing.T) {
	var ran int64
	if err := ForEachCtx(nil, 10, 4, func(ctx context.Context, _ int) error {
		if ctx == nil {
			t.Error("fn received nil ctx")
		}
		atomic.AddInt64(&ran, 1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 10 {
		t.Fatalf("ran %d of 10", ran)
	}
}

func TestForEachCtxCancelReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := ForEachCtx(ctx, 10000, 4, func(ctx context.Context, i int) error {
		select { // a ctx-honoring body, as the simulation engines are
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled ForEachCtx took %v", d)
	}
}

func TestMapCtxPartialOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any scheduling
	out, err := MapCtx(ctx, 8, 4, func(_ context.Context, i int) (int, error) { return i + 1, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(out) != 8 {
		t.Fatalf("want zero-valued partials of len 8, got %d", len(out))
	}
}

func TestWorkerCount(t *testing.T) {
	cases := []struct{ n, workers, want int }{
		{10, 4, 4},
		{3, 8, 3}, // capped at n
		{10, 0, runtime.GOMAXPROCS(0)},
		{10, -1, runtime.GOMAXPROCS(0)},
		{0, 4, 1}, // never below 1
	}
	for _, c := range cases {
		if got := WorkerCount(c.n, c.workers); got != c.want {
			t.Errorf("WorkerCount(%d, %d) = %d, want %d", c.n, c.workers, got, c.want)
		}
	}
}

// TestForEachWorkerCtxWorkerIDs pins the per-worker-state contract the
// batch layer builds on: every worker index is in [0, WorkerCount), every
// iteration runs exactly once, and iterations sharing a worker index never
// overlap in time (so unsynchronized per-worker state is safe).
func TestForEachWorkerCtxWorkerIDs(t *testing.T) {
	const n, workers = 200, 5
	want := WorkerCount(n, workers)
	var ran [n]int64
	var busy [workers]int64
	err := ForEachWorkerCtx(context.Background(), n, workers, func(_ context.Context, w, i int) error {
		if w < 0 || w >= want {
			t.Errorf("iteration %d: worker %d out of [0, %d)", i, w, want)
		}
		if atomic.AddInt64(&busy[w], 1) != 1 {
			t.Errorf("worker %d entered concurrently", w)
		}
		time.Sleep(time.Microsecond)
		atomic.AddInt64(&busy[w], -1)
		atomic.AddInt64(&ran[i], 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i] != 1 {
			t.Fatalf("index %d ran %d times", i, ran[i])
		}
	}
}
