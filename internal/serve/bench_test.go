package serve

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"
)

// benchServer builds a Server sized so the benchmark measures the cache and
// handler path, not queue contention: plenty of workers, a deep queue, and a
// cache large enough that miss-path entries never evict the hit-path entry.
func benchServer(tb testing.TB) *Server {
	tb.Helper()
	s := NewServer(Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 4096, CacheEntries: 1 << 16})
	tb.Cleanup(s.Close)
	return s
}

func benchPost(tb testing.TB, s *Server, body []byte) {
	tb.Helper()
	req := httptest.NewRequest("POST", "/v1/simulate", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != 200 {
		tb.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

const benchBody = `{"spec":"poisson:n=2000,load=0.9,dist=exp","seed":%d,"policy":"RR","speed":2}`

// BenchmarkServeCacheHitVsMiss measures the full HTTP handler path for a
// cache miss (unique seed per iteration → a fresh 2000-job simulation) vs a
// cache hit (same body every iteration → sharded-LRU lookup + cached bytes).
// TestCacheHitFaster gates the ratio.
func BenchmarkServeCacheHitVsMiss(b *testing.B) {
	b.Run("miss", func(b *testing.B) {
		s := benchServer(b)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchPost(b, s, []byte(fmt.Sprintf(benchBody, i+1)))
		}
	})
	b.Run("hit", func(b *testing.B) {
		s := benchServer(b)
		body := []byte(fmt.Sprintf(benchBody, 1))
		benchPost(b, s, body) // warm the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchPost(b, s, body)
		}
	})
}

// TestCacheHitFaster is the result cache's gate: through the full handler,
// a hit is at least 10× faster than a miss, comparing the median of
// missReps misses (each a fresh 2000-job simulation) with the median of
// hitReps hits on the first miss's entry.
func TestCacheHitFaster(t *testing.T) {
	const missReps, hitReps = 21, 201
	s := benchServer(t)
	timed := func(reps int, seed func(i int) int) time.Duration {
		times := make([]time.Duration, reps)
		for i := range times {
			body := []byte(fmt.Sprintf(benchBody, seed(i)))
			t0 := time.Now()
			benchPost(t, s, body)
			times[i] = time.Since(t0)
		}
		slices.Sort(times)
		return times[reps/2]
	}
	miss := timed(missReps, func(i int) int { return i + 1 })
	hit := timed(hitReps, func(int) int { return 1 })
	ratio := float64(miss) / float64(hit)
	t.Logf("median miss %v, median hit %v: %.1fx", miss, hit, ratio)
	if ratio < 10 {
		t.Errorf("a cache hit is only %.1fx faster than a miss, want ≥10x", ratio)
	}
}
