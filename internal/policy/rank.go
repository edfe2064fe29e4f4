package policy

import (
	"math"
	"sort"

	"rrnorm/internal/core"
)

// byKey is the ranking the top-m policies (SRPT, SJF, FCFS, WSRPT, WSJF,
// MLFQ, Gittins, StaticPriority, SETF) sort each pass: idx is a
// permutation of alive-job indices ordered by key ascending, ties broken by
// (Release, ID). It lives on the policy struct and goes to sort.Stable
// through a pointer, so a pass captures no closure and boxes no slice, and
// its buffers grow once and are reused. sort.Stable runs the same
// algorithm as sort.SliceStable, so the permutation is the one a
// comparator closure over the same order produces.
type byKey struct {
	idx  []int
	key  []float64
	jobs []core.JobView
}

// keys readies the ranking for jobs and returns the key column the caller
// fills: key[i] is job i's primary sort key.
func (s *byKey) keys(jobs []core.JobView) []float64 {
	n := len(jobs)
	if cap(s.idx) < n {
		s.idx = make([]int, n)
		s.key = make([]float64, n)
	}
	s.idx = s.idx[:n]
	s.key = s.key[:n]
	s.jobs = jobs
	return s.key
}

func (s *byKey) Len() int      { return len(s.idx) }
func (s *byKey) Swap(x, y int) { s.idx[x], s.idx[y] = s.idx[y], s.idx[x] }

func (s *byKey) Less(x, y int) bool {
	a, b := s.idx[x], s.idx[y]
	if s.key[a] != s.key[b] {
		return s.key[a] < s.key[b]
	}
	if s.jobs[a].Release != s.jobs[b].Release {
		return s.jobs[a].Release < s.jobs[b].Release
	}
	return s.jobs[a].ID < s.jobs[b].ID
}

// sort ranks the jobs by the filled key column and drops the job views,
// which the engine owns, so the policy does not retain them between passes.
func (s *byKey) sort() []int {
	for i := range s.idx {
		s.idx[i] = i
	}
	sort.Stable(s)
	s.jobs = nil
	return s.idx
}

// topM ranks the jobs and assigns rate 1 to the first min(m, n).
func (s *byKey) topM(m int, rates []float64) {
	idx := s.sort()
	for i := 0; i < min(m, len(idx)); i++ {
		rates[idx[i]] = 1
	}
}

// topMEnv is topM generalized to a heterogeneous machine environment: the
// i-th ranked job runs on the i-th fastest machine (rate env.RankSpeed(i)
// instead of 1). With identical unit machines it assigns exactly what topM
// does.
func (s *byKey) topMEnv(env *core.MachineEnv, rates []float64) {
	idx := s.sort()
	for i := 0; i < min(env.M, len(idx)); i++ {
		rates[idx[i]] = env.RankSpeed(i)
	}
}

// shareBuf is the per-pass scratch of the proportional-share policies
// (WRR, PROP): the weight column, waterfill's capped flags and
// propFillEnv's descending-weight order, grown once and reused.
type shareBuf struct {
	weights []float64
	capped  []bool
	desc    byWeightDesc
}

// column returns the weight column sized for n jobs, for the caller to fill.
func (b *shareBuf) column(n int) []float64 {
	if cap(b.weights) < n {
		b.weights = make([]float64, n)
		b.capped = make([]bool, n)
	}
	b.weights = b.weights[:n]
	b.capped = b.capped[:n]
	return b.weights
}

// byWeightDesc orders a permutation of weight indices by weight, largest
// first, for sort.Stable.
type byWeightDesc struct {
	idx []int
	w   []float64
}

func (s *byWeightDesc) Len() int           { return len(s.idx) }
func (s *byWeightDesc) Swap(x, y int)      { s.idx[x], s.idx[y] = s.idx[y], s.idx[x] }
func (s *byWeightDesc) Less(x, y int) bool { return s.w[s.idx[x]] > s.w[s.idx[y]] }

// propFillEnv is the heterogeneous-machine proportional share: rates are
// λ·w_i for the largest λ feasible on the speed profile — every
// sorted-descending weight prefix W_k must satisfy λ·W_k ≤ (speed of the k
// fastest machines), and the total λ·W_n ≤ Σ speeds. Unlike the identical
// path's waterfill it does not redistribute past a binding constraint (the
// caps here are chords of the speed profile, not per-job constants), but it
// degenerates exactly: with all weights equal the rate is RR's generalized
// fair share, and zero-weight jobs get nothing unless every weight is zero,
// in which case capacity splits equally.
func propFillEnv(weights []float64, env *core.MachineEnv, rates []float64, desc *byWeightDesc) {
	n := len(weights)
	if n == 0 {
		return
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		share := env.FairShare(n)
		for i := range rates {
			rates[i] = share
		}
		return
	}
	if cap(desc.idx) < n {
		desc.idx = make([]int, n)
	}
	desc.idx = desc.idx[:n]
	for i := range desc.idx {
		desc.idx[i] = i
	}
	desc.w = weights
	sort.Stable(desc)
	desc.w = nil
	λ := math.Inf(1)
	wsum := 0.0
	k := min(env.M, n)
	for i := 0; i < k; i++ {
		wsum += weights[desc.idx[i]]
		if wsum <= 0 {
			continue
		}
		if l := env.PrefixSpeed(i+1) / wsum; l < λ {
			λ = l
		}
	}
	if n > env.M {
		if l := env.TotalSpeed() / total; l < λ {
			λ = l
		}
	}
	for i, w := range weights {
		if w <= 0 {
			rates[i] = 0
			continue
		}
		rates[i] = λ * w
	}
}

// waterfill distributes capacity M among jobs proportionally to weights,
// capping each job's rate at 1: it finds λ ≥ 0 with Σ_i min(1, λ·w_i) = M
// (or assigns everyone rate 1 when M ≥ n) and writes the rates. Zero-weight
// jobs receive rate 0 unless all weights are zero, in which case capacity is
// split equally. weights, rates and the capped scratch must have equal
// length; waterfill clears capped before use.
func waterfill(weights []float64, M float64, rates []float64, capped []bool) {
	n := len(weights)
	if M >= float64(n) {
		for i := range rates {
			rates[i] = 1
		}
		return
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		share := M / float64(n)
		for i := range rates {
			rates[i] = share
		}
		return
	}
	// Iteratively fix jobs that hit the cap. At most n rounds; in practice
	// a couple.
	clear(capped)
	remM, remW := M, total
	for {
		if remW <= 0 {
			break
		}
		λ := remM / remW
		changed := false
		for i, w := range weights {
			if capped[i] || w <= 0 {
				continue
			}
			if λ*w >= 1 {
				capped[i] = true
				rates[i] = 1
				remM -= 1
				remW -= w
				changed = true
			}
		}
		if !changed {
			for i, w := range weights {
				if !capped[i] {
					rates[i] = λ * w
				}
			}
			return
		}
		if remM <= 0 {
			for i := range weights {
				if !capped[i] {
					rates[i] = 0
				}
			}
			return
		}
	}
}
