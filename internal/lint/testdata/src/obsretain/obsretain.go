// Package obsretain is the golden fixture for the obsretain analyzer:
// every shape of engine-owned-slice retention an observer callback must
// not perform, next to the copy-or-drop idioms it must keep allowing.
package obsretain

// Epoch mirrors core.Epoch: the per-callback view whose Jobs and Rates
// slices are rewritten by the engine after the callback returns.
type Epoch struct {
	Start, End float64
	Alive      int
	Jobs       []int
	Rates      []float64
}

// Result mirrors core.Result: pooled, recycled into the next run.
type Result struct {
	Flow     []float64
	Segments []int
}

// Job mirrors core.Job: scalars only, safe to store by value.
type Job struct {
	Release, Size float64
}

// streamer is the sanctioned shape: scalar folds and element copies.
type streamer struct {
	sum   float64
	max   int
	jobs  []int
	rates []float64
	n     int
}

// ObserveArrival stores only scalars from a scalar-only parameter. Allowed.
func (s *streamer) ObserveArrival(t float64, job int, j Job) {
	s.sum += j.Size
	s.max = job
}

// ObserveEpoch folds scalars, reads elements, and copies slices with the
// append spread idiom. All allowed.
func (s *streamer) ObserveEpoch(e *Epoch) {
	s.sum += (e.End - e.Start) * float64(e.Alive)
	if len(e.Jobs) > 0 {
		s.max = e.Jobs[0]
	}
	s.jobs = append(s.jobs[:0], e.Jobs...)
	s.rates = append(s.rates[:0], e.Rates...)
	for _, r := range e.Rates {
		s.sum += r
	}
}

// ObserveCompletion sees only scalar parameters. Allowed.
func (s *streamer) ObserveCompletion(t float64, job int, flow float64) {
	s.sum += flow
	s.n++
}

// ObserveDone reduces the result without retaining it. Allowed.
func (s *streamer) ObserveDone(res *Result) {
	jobs := res.Segments
	for range jobs {
		s.n++
	}
	total := 0.0
	for _, f := range res.Flow {
		total += f
	}
	s.sum = total
}

// hoarder is every retention shape the analyzer must flag.
type hoarder struct {
	ep     *Epoch
	last   Epoch
	jobs   []int
	tail   []float64
	epochs []Epoch
	res    *Result
	flows  []float64
	byID   map[int][]int
}

// sink is a package-level escape hatch; storing there outlives the
// callback just like a field does.
var sink []int

// ObserveEpoch retains the epoch or its slices in fields. All flagged.
func (h *hoarder) ObserveEpoch(e *Epoch) {
	h.ep = e                         // want "ObserveEpoch stores engine-owned e into h.ep"
	h.last = *e                      // want "stores engine-owned .e into h.last"
	h.jobs = e.Jobs                  // want "stores engine-owned e.Jobs into h.jobs"
	h.tail = e.Rates[1:]             // want "stores engine-owned e.Rates.1:. into h.tail"
	h.epochs = append(h.epochs, *e)  // want "stores engine-owned append.h.epochs, .e. into h.epochs"
	h.byID[e.Alive] = e.Jobs         // want "stores engine-owned e.Jobs"
	sink = e.Jobs                    // want "stores engine-owned e.Jobs into sink"
	h.last = Epoch{Jobs: e.Jobs}     // want "stores engine-owned"
	h.jobs, h.tail = e.Jobs, e.Rates // want "stores engine-owned e.Jobs" want "stores engine-owned e.Rates"
	_ = e.Rates                      // blank target drops the value: allowed
	local := e.Jobs                  // local alias: out of scope, allowed
	local[0] = 0
}

// ObserveDone retains the pooled result or its slices. Flagged.
func (h *hoarder) ObserveDone(res *Result) {
	h.res = res        // want "ObserveDone stores engine-owned res into h.res"
	h.flows = res.Flow // want "stores engine-owned res.Flow into h.flows"
	h.last.Start = res.Flow[0]
}

// shadower reads its own result through a local that shadows the callback
// parameter's name. Allowed: the local holds none of the engine's memory.
type shadower struct {
	local *Result
	keep  []float64
}

// ObserveDone stores a slice of the shadowing local, not of res.
func (o *shadower) ObserveDone(res *Result) {
	{
		res := o.local
		o.keep = res.Flow
	}
	o.keep = append(o.keep[:0], res.Flow...)
}
