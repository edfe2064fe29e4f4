package fast

import (
	"slices"

	"rrnorm/internal/core"
	"rrnorm/internal/queue"
)

// scratch is the fast engine's per-workspace state: the RR virtual-time
// completion heap, and the top-m engine's slot arrays plus the three slot
// heaps ranging over them. It rides on
// core.Workspace.EngineScratch, so one pooled workspace serves both
// engines; after the first run on a workspace every buffer here is reused
// and the fast paths allocate nothing.
//
// Slots replace the old full-instance arrays: per-job state (remaining
// work, completion-if-unpreempted time, static key, tolerance, release,
// arrival sequence) is allocated at admission and freed at completion, so
// capacity is bounded by the peak alive set — the property that lets the
// same engine consume an unbounded JobSource with O(alive) memory.
type scratch struct {
	rrHeap queue.JobHeap

	// rrPair and soaRelTol serve the batched materialized RR path (rrMat):
	// 16-byte (key, id) heap items plus a flat per-job {release, tolerance}
	// column indexed by normalized job index — the columnar SoA layout that
	// keeps the bulk-advance drain on flat float loads instead of 32-byte
	// Job structs. Release and tolerance are interleaved in one 16-byte
	// pair because the drain always reads them together (tolerance for the
	// pop test, release for the flow), and completions visit job indices in
	// heap order, not sequentially: one pair per completion is one
	// scattered cache line where split columns would fill two. The column
	// is sized to the instance (the materialized path is O(n) by
	// definition) and written at admission before any read, so it is never
	// cleared.
	rrPair    queue.PairHeap
	soaRelTol [][2]float64

	// shares caches env.FairShare(alive) for alive in [1, rateTabSize): RR's
	// per-job rate is speed·shares[alive], and the RR drains need it on
	// every event, so a table lookup replaces a hardware divide on the
	// critical path of the next completion time. sharesM/sharesSpeeds are
	// the cache key (0 = never built; nil speeds = identical machines).
	// Entries hold the exact bits env.FairShare produces, so table and
	// inline call are interchangeable in the drains.
	shares       []float64
	sharesM      int
	sharesSpeeds []float64

	// env is the run's machine environment, rebuilt by dispatch on reused
	// buffers (core.BuildMachineEnv); the RR paths consult it for fair
	// shares and epoch rate sums.
	env core.MachineEnv

	ord     ordering
	rem     []float64 // remaining work (frozen while waiting)
	cAt     []float64 // completion-if-unpreempted time (while running)
	key     []float64 // static policy key (SJF size, StaticPriority rank)
	tol     []float64 // core.CompletionTol(size), precomputed at admission
	release []float64 // release time, for flow at completion
	seq     []int     // arrival sequence number: the tie-break and result index
	free    []int     // freed slot ids, reused before growing
	byC     slotHeap  // running slots by next completion
	worst   slotHeap  // running slots, preemption victim first
	waiting slotHeap  // waiting slots, promotion candidate first

	// epoch is the single core.Epoch value reused for every ObserveEpoch
	// callback, kept here (not on the run's stack) so its address reaching
	// the Observer interface call does not escape-allocate per run. cur and
	// sum live here for the same reason: the run structs' contents leak
	// through Observer interface calls, so a stack-local cursor or stream
	// summary would be forced to the heap on every run. Both are cleared at
	// the end of each run so no job slice or source outlives it.
	epoch core.Epoch
	cur   core.Cursor
	sum   core.StreamResult
}

// Reset truncates the slot buffers and drops cross-run ordering state.
// core.Workspace.Reset calls it (via the Reset interface) before the
// workspace returns to its pool; heap backing arrays are kept — reuse
// re-initializes them per run, and they hold no references.
func (s *scratch) Reset() {
	s.rrHeap.Reset()
	s.rrPair.Reset()
	s.soaRelTol = s.soaRelTol[:0]
	s.ord = ordering{}
	s.rem = s.rem[:0]
	s.cAt = s.cAt[:0]
	s.key = s.key[:0]
	s.tol = s.tol[:0]
	s.release = s.release[:0]
	s.seq = s.seq[:0]
	s.free = s.free[:0]
	s.epoch = core.Epoch{}
	s.cur = core.Cursor{}
	s.sum = core.StreamResult{}
}

// emitEpoch delivers the aggregate-only epoch [start, end) to obs, reusing
// ep so the dispatch allocates nothing. Zero-length and idle (alive == 0)
// epochs are skipped, matching the reference engine's segment stream (its
// segments only cover time with alive jobs).
func emitEpoch(obs core.Observer, ep *core.Epoch, start, end float64, alive int, rateSum float64) {
	if obs == nil || end <= start || alive == 0 {
		return
	}
	*ep = core.Epoch{Start: start, End: end, Alive: alive, RateSum: rateSum}
	obs.ObserveEpoch(ep)
}

// rateTabSize bounds the cached fair-share table. 1024 entries cover
// every alive count seen outside pathological bursts; larger counts fall
// back to the inline env.FairShare call.
const rateTabSize = 1024

// fairShares returns the fair-share table for env: entry a holds exactly
// env.FairShare(a) — on identical machines math.Min(1, m/a), the same
// IEEE-754 division the drain would perform inline, so a lookup cannot
// perturb a single bit of the event times. Rebuilt only when the machine
// count or speed vector changed since the last run on this scratch, so
// steady-state runs stay allocation-free.
func (s *scratch) fairShares(env *core.MachineEnv) []float64 {
	sp := env.SortedSpeeds()
	if s.sharesM == env.M && len(s.shares) == rateTabSize && slices.Equal(s.sharesSpeeds, sp) {
		return s.shares
	}
	if cap(s.shares) < rateTabSize {
		s.shares = make([]float64, rateTabSize)
	}
	s.shares = s.shares[:rateTabSize]
	for a := 1; a < rateTabSize; a++ {
		s.shares[a] = env.FairShare(a)
	}
	s.sharesM = env.M
	s.sharesSpeeds = append(s.sharesSpeeds[:0], sp...)
	return s.shares
}

// sizedPairs resizes *p to length n without clearing, reallocating only
// below capacity — the SoA column is always written at admission before
// any read at completion, so stale values are unreachable and the clear
// that core's grow performs would be pure memory traffic.
func sizedPairs(p *[][2]float64, n int) [][2]float64 {
	if cap(*p) < n {
		*p = make([][2]float64, n)
	}
	*p = (*p)[:n]
	return *p
}

// recordFinish delivers one job completion to the active sink — the
// materialized per-job arrays (res != nil) or the streaming aggregates —
// and the observer; the fast-path mirror of the reference engine's sink.
func recordFinish(res *core.Result, sum *core.StreamResult, obs core.Observer, seq int, release, t float64) {
	flow := t - release
	if res != nil {
		res.Completion[seq] = t
		res.Flow[seq] = flow
	} else {
		sum.Completed++
		if t > sum.Makespan {
			sum.Makespan = t
		}
		if flow > sum.MaxFlow {
			sum.MaxFlow = flow
		}
	}
	if obs != nil {
		obs.ObserveCompletion(t, seq, flow)
	}
}

// scratchOf returns ws's fast-engine scratch, attaching a fresh one on
// first use — the only allocation a reused workspace ever sees.
func scratchOf(ws *core.Workspace) *scratch {
	if s, ok := ws.EngineScratch().(*scratch); ok {
		return s
	}
	s := &scratch{}
	ws.SetEngineScratch(s)
	return s
}

// prepareTopM readies the slot state for a run: all slots released and the
// heaps emptied. Slot capacity from earlier runs is kept, so steady-state
// runs allocate nothing.
func (s *scratch) prepareTopM(kind ordKind, speed float64) {
	s.rem = s.rem[:0]
	s.cAt = s.cAt[:0]
	s.key = s.key[:0]
	s.tol = s.tol[:0]
	s.release = s.release[:0]
	s.seq = s.seq[:0]
	s.free = s.free[:0]
	s.ord = ordering{kind: kind, s: s, speed: speed}
	s.byC.reuse()
	s.worst.reuse()
	s.waiting.reuse()
}

// allocSlot claims a slot for an admitted job, reusing a freed one when
// available. rem is seeded with the job's full size (it only changes when a
// preemption freezes progress); cAt is set by start.
func (s *scratch) allocSlot(j core.Job, seq int, key, tol float64) int {
	if k := len(s.free) - 1; k >= 0 {
		sl := s.free[k]
		s.free = s.free[:k]
		s.seq[sl] = seq
		s.rem[sl] = j.Size
		s.cAt[sl] = 0
		s.key[sl] = key
		s.tol[sl] = tol
		s.release[sl] = j.Release
		return sl
	}
	sl := len(s.seq)
	s.seq = append(s.seq, seq)
	s.rem = append(s.rem, j.Size)
	s.cAt = append(s.cAt, 0)
	s.key = append(s.key, key)
	s.tol = append(s.tol, tol)
	s.release = append(s.release, j.Release)
	s.byC.grow(sl + 1)
	s.worst.grow(sl + 1)
	s.waiting.grow(sl + 1)
	return sl
}

// freeSlot releases a completed job's slot for reuse. The slot must
// already be out of all three heaps.
func (s *scratch) freeSlot(sl int) { s.free = append(s.free, sl) }
