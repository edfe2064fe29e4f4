package metrics

import (
	"fmt"
	"math"

	"rrnorm/internal/core"
)

// StreamNorm accumulates the k-th power sums Σ_j F_j^k — and the ℓk-norms
// they induce — online, one completion at a time, for a fixed set of k's.
// Attached as a core.Observer it replaces the LkNorm-over-Result.Flow
// post-pass without materializing anything per job: state is O(len(ks)),
// which is what lets an n=10⁶ sweep run without a recorded Segment
// timeline and without a second pass over the flows.
//
// Numerical stability matches LkNorm: sums are kept normalized by the
// running maximum flow (Σ (F_j/max)^k), rescaled when a new maximum
// arrives, so large k never overflows mid-stream. Against the batch LkNorm
// the result differs only by the rescaling roundoff — well inside the
// 1e-6 relative tolerance the differential harness checks.
//
// The zero value is not ready; use NewStreamNorm. Add and the observer
// callbacks allocate nothing, so a workspace-reuse run with a StreamNorm
// attached stays allocation-free in steady state.
type StreamNorm struct {
	ks   []int
	sums []float64 // sums[i] = Σ (f/max)^ks[i]
	max  float64
	n    int
}

// NewStreamNorm returns a StreamNorm tracking the given exponents (each
// ≥ 1; duplicates are fine). With no arguments it tracks k = 1, 2, 3 —
// the norms the paper reports. Panics on k < 1: exponents are compile-time
// decisions, not data.
func NewStreamNorm(ks ...int) *StreamNorm {
	if len(ks) == 0 {
		ks = []int{1, 2, 3}
	}
	for _, k := range ks {
		if k < 1 {
			panic(fmt.Sprintf("metrics: StreamNorm k must be ≥ 1, got %d", k))
		}
	}
	return &StreamNorm{
		ks:   append([]int(nil), ks...),
		sums: make([]float64, len(ks)),
	}
}

// Reset clears the accumulated state, keeping the exponent set.
func (s *StreamNorm) Reset() {
	for i := range s.sums {
		s.sums[i] = 0
	}
	s.max = 0
	s.n = 0
}

// Add folds one flow time into every tracked power sum.
func (s *StreamNorm) Add(flow float64) {
	s.n++
	if flow > s.max {
		if s.max > 0 {
			r := s.max / flow
			for i, k := range s.ks {
				s.sums[i] *= PowK(r, k)
			}
		}
		s.max = flow
	}
	if s.max == 0 {
		return // flow == 0 contributes nothing to any k ≥ 1 sum
	}
	x := flow / s.max
	for i, k := range s.ks {
		s.sums[i] += PowK(x, k)
	}
}

// N returns the number of flows added.
func (s *StreamNorm) N() int { return s.n }

// MaxFlow returns the running maximum flow (the ℓ∞-norm so far).
func (s *StreamNorm) MaxFlow() float64 { return s.max }

// Ks returns the tracked exponents (a copy).
func (s *StreamNorm) Ks() []int { return append([]int(nil), s.ks...) }

// idx returns the position of k in the tracked set; panics when k was not
// requested at construction — asking for an untracked norm is a programming
// error, not a data condition.
func (s *StreamNorm) idx(k int) int {
	for i, kk := range s.ks {
		if kk == k {
			return i
		}
	}
	panic(fmt.Sprintf("metrics: StreamNorm does not track k=%d (tracking %v)", k, s.ks))
}

// Norm returns the ℓk-norm (Σ F^k)^{1/k} of the flows added so far, for a
// tracked k.
func (s *StreamNorm) Norm(k int) float64 {
	i := s.idx(k)
	if s.max == 0 {
		return 0
	}
	if k == 1 {
		return s.max * s.sums[i]
	}
	return s.max * math.Pow(s.sums[i], 1/float64(k))
}

// PowerSum returns Σ F^k for a tracked k. Unlike Norm it denormalizes by
// max^k, so for large k and large flows it can overflow to +Inf — the same
// caveat as the batch KthPowerSum.
func (s *StreamNorm) PowerSum(k int) float64 {
	i := s.idx(k)
	if s.max == 0 {
		return 0
	}
	return PowK(s.max, k) * s.sums[i]
}

// ObserveArrival implements core.Observer.
func (s *StreamNorm) ObserveArrival(t float64, job int, j core.Job) {}

// ObserveEpoch implements core.Observer.
func (s *StreamNorm) ObserveEpoch(e *core.Epoch) {}

// CoarseEpochsOK implements core.CoarseEpochObserver: the norm reduces
// completions only, so it is epoch-blind and the fast engine skips its
// epoch callbacks without changing a single digit of the result.
func (s *StreamNorm) CoarseEpochsOK() bool { return true }

// Merge folds another accumulator tracking the same exponent set into s —
// the reduction step for machine-sharded runs, where each shard reduces
// its own completions and the shards are merged afterwards in shard
// order. The merged state is exactly what one StreamNorm would hold had
// it seen s's flows followed by o's (both rescaled to the common maximum),
// so folding shards in a fixed order is deterministic: same shards, same
// order, same bits — regardless of how many workers ran them. o is not
// modified. Panics when the exponent sets differ: merging mismatched
// accumulators is a programming error.
func (s *StreamNorm) Merge(o *StreamNorm) {
	if len(s.ks) != len(o.ks) {
		panic(fmt.Sprintf("metrics: Merge of StreamNorms with different exponents %v vs %v", s.ks, o.ks))
	}
	for i := range s.ks {
		if s.ks[i] != o.ks[i] {
			panic(fmt.Sprintf("metrics: Merge of StreamNorms with different exponents %v vs %v", s.ks, o.ks))
		}
	}
	s.n += o.n
	if o.max == 0 {
		return // nothing but zero flows on the other side
	}
	if o.max > s.max {
		// Rescale s's sums to o's (larger) maximum, mirroring Add.
		if s.max > 0 {
			r := s.max / o.max
			for i, k := range s.ks {
				s.sums[i] *= PowK(r, k)
			}
		}
		s.max = o.max
		for i := range s.sums {
			s.sums[i] += o.sums[i]
		}
		return
	}
	r := o.max / s.max
	for i, k := range s.ks {
		s.sums[i] += o.sums[i] * PowK(r, k)
	}
}

// ObserveCompletion implements core.Observer: each completion's flow time
// is folded into the power sums.
func (s *StreamNorm) ObserveCompletion(t float64, job int, flow float64) {
	s.Add(flow)
}

// ObserveDone implements core.Observer.
func (s *StreamNorm) ObserveDone(res *core.Result) {}
