package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/serve"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// serve-open's request classes.
const (
	classMiss = iota
	classHit
	classCompare
	classReplay
	numClasses
)

var classNames = [numClasses]string{"miss", "hit", "compare", "replay"}

// The kinds of request serve-open's schedule draws: a simulate miss, a
// simulate miss with timeline:true, a compare, a gzip trace replay, and a
// hit that repeats an earlier miss.
const (
	drawMiss = iota
	drawTimeline
	drawCompare
	drawReplay
	drawHit
	numDraws
)

// handlerCostMs is each computing kind's in-process handler time at
// serve-open's sizes, as its traced run measured them on the reference host
// (serve.handler_miss_ms, serve.handler_compare_ms, serve.handler_replay_ms
// and the provenance's handler_timeline_ms, seed 1) when the mix was set.
// Only their ratios matter.
var handlerCostMs = [drawHit]float64{drawMiss: 11.5, drawTimeline: 12.7, drawCompare: 28.3, drawReplay: 7.1}

// drawShares returns each kind's share of serve-open's requests. The four
// computing kinds take equal shares of server time, so each one's share of
// requests is proportional to 1/handlerCostMs; and every simulate result is
// asked for twice, once by the miss that computes it and once by a later
// hit, so hits are as many as misses.
func drawShares() [numDraws]float64 {
	var w [numDraws]float64
	sum := 0.0
	for k := range drawHit {
		w[k] = 1 / handlerCostMs[k]
	}
	w[drawHit] = w[drawMiss] + w[drawTimeline]
	for _, x := range w {
		sum += x
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

const (
	// serveRate is the open loop's offered load outside the calibration
	// windows, in requests per second. With the mix above a request holds
	// the server for about 8 ms on average, so the two pool workers are
	// about an eighth busy, and still under a third busy when the host runs
	// at half speed: at 50 req/s the queueing that such a host adds grew
	// faster than its slowdown, which no division by the host index can
	// take out. A 30-second run holds about 800 requests.
	serveRate = 30
	// maxInflight bounds the requests in flight; the generator refuses a
	// request beyond it, which counts as failed.
	maxInflight = 256
	// calEvery and calGap place the calibration windows: the schedule
	// leaves [k·calEvery, k·calEvery+calGap) empty for k ≥ 1, and there the
	// generator waits for the requests in flight and runs a pass of the
	// reference kernel.
	calEvery = 2 * time.Second
	calGap   = 250 * time.Millisecond
	// spanHeader marks a request the traced run's live server records a
	// span for.
	spanHeader = "X-Perfbench-Span"
)

// serveSizes are serve-open's request sizes.
type serveSizes struct {
	miss    int           // jobs in a /v1/simulate miss
	compare int           // jobs in a /v1/compare
	replay  int           // jobs in a /v1/replay trace
	hitLag  time.Duration // a hit repeats a miss scheduled at least this much earlier
}

func serveSizesFor(smoke bool) serveSizes {
	if smoke {
		return serveSizes{miss: 500, compare: 300, replay: 200, hitLag: 100 * time.Millisecond}
	}
	// A hit lags its miss by over a hundred times a miss's handler time, so
	// the miss has finished and the repeat finds its cache entry.
	return serveSizes{miss: 20_000, compare: 10_000, replay: 2_000, hitLag: 2 * time.Second}
}

// request is one scheduled request of the open loop.
type request struct {
	at       time.Duration // send time, from the start of the timed phase
	class    int
	path     string // path and query
	body     []byte
	gzip     bool   // Content-Encoding: gzip
	digest   string // X-Replay-Digest
	spec     string
	seed     uint64
	policy   string // "" for a compare
	machines int    // a replay's machine count
	timeline bool
	orig     int  // a hit's miss
	check    bool // verify the response's norms against a reference run
	jobs     int
}

// reply is what the load generator saw for one request.
type reply struct {
	sent, done time.Time
	status     int
	cache      string
	body       []byte
	spanned    bool
	err        error
}

// missSpec is the workload of a /v1/simulate miss.
func missSpec(n int) string { return fmt.Sprintf("poisson:n=%d,load=0.9,dist=exp", n) }

// buildSchedule draws serve-open's open-loop schedule from the seed. It
// holds serveRate requests per second outside the calibration windows, at
// uniformly drawn times, which makes it a Poisson process conditioned on
// its count; and each kind's share of the requests is fixed by
// drawShares, in a seeded order. So a seed changes which request comes
// when, not how many of each kind there are. A hit repeats a miss sent at
// least hitLag earlier; before there is one it is a miss. Misses alternate
// RR and SRPT. One in eight misses and one in four compares and replays
// are checked against a reference run.
func buildSchedule(seed uint64, seconds float64, sz serveSizes) ([]request, error) {
	rng := stats.NewRNG(seed ^ 0x5e7e_0be2)
	span := time.Duration(seconds * float64(time.Second))
	traffic := span
	for w := calEvery; w < span; w += calEvery {
		traffic -= min(calGap, span-w)
	}
	n := int(math.Round(serveRate * traffic.Seconds()))
	times := make([]time.Duration, 0, n)
	for len(times) < n {
		at := time.Duration(rng.Float64() * float64(span))
		if at >= calEvery && at%calEvery < calGap {
			continue
		}
		times = append(times, at)
	}
	slices.Sort(times)
	kinds := make([]int, 0, n)
	shares := drawShares()
	for k := range numDraws {
		for range int(math.Round(shares[k] * float64(n))) {
			kinds = append(kinds, k)
		}
	}
	for len(kinds) < n {
		kinds = append(kinds, drawHit)
	}
	kinds = kinds[:n]
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

	var reqs []request
	var misses, replays []int
	for i, at := range times {
		kind := kinds[i]
		r := request{at: at, orig: -1, seed: seed<<32 | uint64(i)}
		if kind == drawHit {
			k := 0
			for k < len(misses) && reqs[misses[k]].at <= at-sz.hitLag {
				k++
			}
			if k == 0 {
				kind = drawMiss
			} else {
				j := misses[rng.IntN(k)]
				o := &reqs[j]
				r.class, r.path, r.body, r.policy, r.spec, r.seed, r.timeline, r.orig, r.jobs =
					classHit, o.path, o.body, o.policy, o.spec, o.seed, o.timeline, j, o.jobs
			}
		}
		switch kind {
		case drawMiss, drawTimeline:
			r.class, r.path, r.spec, r.jobs = classMiss, "/v1/simulate", missSpec(sz.miss), sz.miss
			r.policy = "RR"
			if len(misses)%2 == 1 {
				r.policy = "SRPT"
			}
			r.timeline = kind == drawTimeline
			r.check = rng.IntN(8) == 0
			b, err := json.Marshal(serve.SimulateRequest{Spec: r.spec, Seed: r.seed, Policy: r.policy, Timeline: r.timeline})
			if err != nil {
				return nil, err
			}
			r.body = b
			misses = append(misses, i)
		case drawCompare:
			r.class, r.path, r.spec, r.jobs = classCompare, "/v1/compare", missSpec(sz.compare), sz.compare
			r.check = rng.IntN(4) == 0
			b, err := json.Marshal(serve.CompareRequest{Spec: r.spec, Seed: r.seed, Policies: []string{"RR", "SRPT", "SETF"}})
			if err != nil {
				return nil, err
			}
			r.body = b
		case drawReplay:
			r.class, r.jobs, r.gzip = classReplay, sz.replay, true
			r.check = rng.IntN(4) == 0
			replays = append(replays, i)
		}
		reqs = append(reqs, r)
	}
	// Replays draw on a pool of traces: the k-th replays trace k mod P
	// with the (k div P)-th of the eight (policy, machines) pairs, so every
	// replay's cache key is new and each is a miss, while only P traces are
	// encoded.
	pool := (len(replays) + len(replayRuns) - 1) / len(replayRuns)
	bodies := make([][]byte, pool)
	digests := make([]string, pool)
	for j := range pool {
		b, err := encodeTrace(replayInstance(replaySeed(seed, j), sz.replay).Jobs, trace.FormatNDJSON, true)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(b)
		bodies[j], digests[j] = b, hex.EncodeToString(sum[:])
	}
	for k, i := range replays {
		r := &reqs[i]
		j, run := k%pool, replayRuns[k/pool]
		r.seed, r.policy, r.machines = replaySeed(seed, j), run.policy, run.machines
		r.body, r.digest = bodies[j], digests[j]
		r.path = fmt.Sprintf("/v1/replay?policy=%s&machines=%d&format=ndjson", r.policy, r.machines)
	}
	return reqs, nil
}

// replayRuns are the (policy, machines) pairs a replayed trace runs under.
var replayRuns = [...]struct {
	policy   string
	machines int
}{{"RR", 1}, {"SRPT", 1}, {"RR", 2}, {"SRPT", 2}, {"RR", 3}, {"SRPT", 3}, {"RR", 4}, {"SRPT", 4}}

// replaySeed is the seed of the j-th replay trace.
func replaySeed(seed uint64, j int) uint64 { return seed<<32 | 1<<31 | uint64(j) }

// replayInstance is the instance a replay request's trace encodes.
func replayInstance(seed uint64, n int) *core.Instance {
	return workload.PoissonLoad(stats.NewRNG(seed), n, replayMachines, 0.9, workload.ExpSizes{M: 1})
}

// httpReq builds r as a request to the server at base.
func (r *request) httpReq(base string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return nil, err
	}
	r.setHeaders(req)
	return req, nil
}

// inProcessReq builds r as a request for a handler called in-process.
func (r *request) inProcessReq() *http.Request {
	req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
	r.setHeaders(req)
	return req
}

func (r *request) setHeaders(req *http.Request) {
	if r.gzip {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if r.digest != "" {
		req.Header.Set("X-Replay-Digest", r.digest)
	}
	req.Header.Set("Content-Type", "application/json")
}

// liveServer is rrserve's handler behind a loopback listener. In the traced
// run spans records a span around the handler for each request that
// carries spanHeader.
type liveServer struct {
	srv   *serve.Server
	http  *http.Server
	spans *spanHandler
	base  string
	done  chan error
}

// serveWorkers is the server's pool size: as many workers as the
// reference host has CPUs.
const serveWorkers = 2

func newServeConfig() serve.Config {
	// A cache large enough that no repeat finds its entry evicted.
	return serve.Config{Workers: serveWorkers, CacheEntries: 1 << 16}
}

func startLiveServer(tr *tracer) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := serve.NewServer(newServeConfig())
	ls := &liveServer{srv: s, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = s.Handler()
	if tr != nil {
		ls.spans = &spanHandler{h: h, tr: tr}
		h = ls.spans
	}
	ls.http = &http.Server{Handler: h}
	go func() { ls.done <- ls.http.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, waits for the serving goroutine and drains
// the pool.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.http.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	return err
}

// spanHandler records a span around the wrapped handler for every request
// that carries spanHeader, whose value is the request's op id. The live
// server calls it from many goroutines.
type spanHandler struct {
	h     http.Handler
	tr    *tracer
	mu    sync.Mutex
	spans []span
}

func (s *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(spanHeader)
	if v == "" {
		s.h.ServeHTTP(w, r)
		return
	}
	op, _ := strconv.Atoi(v)
	start := s.tr.now()
	s.h.ServeHTTP(w, r)
	end := s.tr.now()
	s.mu.Lock()
	s.spans = append(s.spans, span{Name: "live.serve.Handler.ServeHTTP", Op: op, Parent: -1, Start: start, End: end, Dur: end - start, Calls: 1})
	s.mu.Unlock()
}

// newClient returns a client that keeps at most two connections open.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		},
	}
}

// do sends r and reads the whole response; span adds spanHeader with the
// op id op.
func do(client *http.Client, base string, r *request, op int, span bool) reply {
	rp := reply{spanned: span}
	req, err := r.httpReq(base)
	if err != nil {
		rp.err = err
		return rp
	}
	if span {
		req.Header.Set(spanHeader, strconv.Itoa(op))
	}
	resp, err := client.Do(req)
	if err != nil {
		rp.err = err
		return rp
	}
	defer resp.Body.Close()
	rp.status, rp.cache = resp.StatusCode, resp.Header.Get("X-Cache")
	rp.body, rp.err = io.ReadAll(resp.Body)
	return rp
}

// loopResult is what the open loop saw: each request's reply, the
// generator's lag behind the schedule in ms, whether each hit's miss had
// completed when the hit was sent, and the kernel passes it ran.
type loopResult struct {
	replies  []reply
	lag      []float64
	origDone []bool
	start    time.Time
	passes   []loopPass
}

// loopPass is one kernel pass of the open loop: its offset from the
// loop's start and its host index.
type loopPass struct {
	at time.Duration
	x  float64
}

// hostIndexAt is the host index at offset at of the loop: the mean of the
// passes just before and just after it.
func (l *loopResult) hostIndexAt(at time.Duration) float64 {
	k := 1
	for k < len(l.passes)-1 && l.passes[k].at <= at {
		k++
	}
	return (l.passes[k-1].x + l.passes[k].x) / 2
}

// openLoop sends reqs on their schedule from one generator goroutine; each
// request waits for one of the client's two connections on a goroutine of
// its own, so a slow response never delays later sends. In each
// calibration window it waits, for up to half the window, until no request
// is in flight, then runs a kernel pass; one more pass runs once every
// request has finished, and the last set-up pass stands for the loop's
// start. With spans set, every second request carries spanHeader.
func openLoop(client *http.Client, base string, reqs []request, hk *refKernel, spans bool) (*loopResult, error) {
	l := &loopResult{
		replies:  make([]reply, len(reqs)),
		lag:      make([]float64, len(reqs)),
		origDone: make([]bool, len(reqs)),
		passes:   []loopPass{{0, hk.samples[len(hk.samples)-1]}},
	}
	completed := make([]atomic.Bool, len(reqs))
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	l.start = time.Now()
	window := calEvery
	for i := range reqs {
		for reqs[i].at >= window {
			time.Sleep(time.Until(l.start.Add(window)))
			for drain := l.start.Add(window + calGap/2); len(sem) > 0 && time.Now().Before(drain); {
				time.Sleep(time.Millisecond)
			}
			x, err := calibrate(hk)
			if err != nil {
				wg.Wait()
				return nil, err
			}
			l.passes = append(l.passes, loopPass{window, x})
			window += calEvery
		}
		due := l.start.Add(reqs[i].at)
		time.Sleep(time.Until(due))
		now := time.Now()
		l.lag[i] = float64(now.Sub(due).Nanoseconds()) / 1e6
		if o := reqs[i].orig; o >= 0 {
			l.origDone[i] = completed[o].Load()
		}
		select {
		case sem <- struct{}{}:
		default:
			l.replies[i] = reply{sent: now, done: now, err: errors.New("refused: too many requests in flight")}
			continue
		}
		wg.Add(1)
		go func(i int, sent time.Time) {
			defer wg.Done()
			rp := do(client, base, &reqs[i], i, spans && i%2 == 1)
			rp.sent, rp.done = sent, time.Now()
			l.replies[i] = rp
			completed[i].Store(true)
			<-sem
		}(i, now)
	}
	wg.Wait()
	x, err := calibrate(hk)
	if err != nil {
		return nil, err
	}
	l.passes = append(l.passes, loopPass{time.Since(l.start), x})
	return l, nil
}

// checkReply checks one reply's status and X-Cache outcome; for a hit
// also that its body is the miss's, byte for byte.
func checkReply(r *request, rp *reply, origDone bool, orig *reply) error {
	if rp.err != nil {
		return rp.err
	}
	if rp.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", rp.status, bytes.TrimSpace(rp.body))
	}
	want := "miss"
	if r.class == classHit {
		want = "hit"
		if !origDone && rp.cache == "dedup" {
			want = "dedup"
		}
		if orig != nil && orig.err == nil && orig.status == http.StatusOK && !bytes.Equal(rp.body, orig.body) {
			return errors.New("hit body differs from its miss")
		}
	}
	if rp.cache != want {
		return fmt.Errorf("X-Cache %q, want %q", rp.cache, want)
	}
	return nil
}

// referenceNorms recomputes a checked request's ℓ1/ℓ2/ℓ3 norms outside the
// server: fast.RunWS plus metrics.LkNorm on the same (spec, seed, policy)
// for simulate and compare, and a StreamNorm over the trace's instance for
// replay — the same computations the handlers make.
func referenceNorms(r *request, policyName string) ([]float64, error) {
	p, err := polspec.New(policyName)
	if err != nil {
		return nil, err
	}
	if r.class == classReplay {
		sn := metrics.NewStreamNorm(1, 2, 3)
		in := replayInstance(r.seed, r.jobs)
		if _, err := fast.RunWS(in, p, core.Options{Machines: r.machines, Speed: 1, Observer: sn}, nil); err != nil {
			return nil, err
		}
		n := normsOf(sn)
		return n[:], nil
	}
	in, err := workload.FromSpec(r.spec, r.seed)
	if err != nil {
		return nil, err
	}
	res, err := fast.RunWS(in, p, core.Options{Machines: 1, Speed: 1}, nil)
	if err != nil {
		return nil, err
	}
	return []float64{metrics.LkNorm(res.Flow, 1), metrics.LkNorm(res.Flow, 2), metrics.LkNorm(res.Flow, 3)}, nil
}

func normValues(ns []serve.NormValue) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = n.Value
	}
	return out
}

// checkNorms compares a checked request's response norms with the
// reference, bit for bit.
func checkNorms(r *request, body []byte) error {
	type entry struct {
		policy string
		norms  []float64
	}
	var got []entry
	switch r.class {
	case classCompare:
		var resp serve.CompareResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		for _, e := range resp.Policies {
			got = append(got, entry{e.Policy, normValues(e.Norms)})
		}
	case classReplay:
		var resp serve.ReplayResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = append(got, entry{r.policy, normValues(resp.Norms)})
	default:
		var resp serve.SimulateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		got = append(got, entry{r.policy, normValues(resp.Norms)})
	}
	for _, e := range got {
		want, err := referenceNorms(r, e.policy)
		if err != nil {
			return fmt.Errorf("%s reference: %w", e.policy, err)
		}
		if !sameBits(e.norms, want) {
			return fmt.Errorf("%s norms %v, reference %v", e.policy, e.norms, want)
		}
	}
	return nil
}

// varInt reads an integer counter from a server's metrics map.
func varInt(m *expvar.Map, name string) float64 {
	switch v := m.Get(name).(type) {
	case *expvar.Int:
		return float64(v.Value())
	case expvar.Func:
		if n, ok := v.Value().(int64); ok {
			return float64(n)
		}
	}
	return 0
}

// runServeOpen drives serve-open: rrserve's handler on a loopback listener
// in this process, under an open loop of seeded-Poisson requests.
func runServeOpen(cfg config, tr *tracer, hk *refKernel) (*report, error) {
	sz := serveSizesFor(cfg.smoke)
	rep := newReport()
	loopSeconds := cfg.seconds
	if tr != nil {
		// The traced run spends half its time on the open loop and half
		// replaying the same requests in-process.
		loopSeconds = cfg.seconds / 2
	}
	var reqs []request
	var ls *liveServer
	client := newClient()
	defer client.CloseIdleConnections()
	var stopErr error
	err := setup(rep, hk, func() {
		stopErr = ls.stop()
		ls, reqs = nil, nil
	}, func() error {
		if stopErr != nil {
			return stopErr
		}
		var err error
		if reqs, err = buildSchedule(cfg.seed, loopSeconds, sz); err != nil {
			return err
		}
		if ls, err = startLiveServer(tr); err != nil {
			return err
		}
		// Warm-up: one request of each class on seeds the schedule never
		// uses, and the first miss again as a hit, so the connections,
		// pool, cache and handlers are live.
		warm, err := buildSchedule(cfg.seed+1<<31, 2, sz)
		if err != nil {
			return err
		}
		seen := [numClasses]bool{}
		first := -1
		for i := range warm {
			if c := warm[i].class; !seen[c] {
				seen[c] = true
				if rp := do(client, ls.base, &warm[i], 0, false); rp.err != nil || rp.status != http.StatusOK {
					return fmt.Errorf("warm-up %s: status %d, %v", classNames[c], rp.status, rp.err)
				}
				if c == classMiss {
					first = i
				}
			}
		}
		if first >= 0 {
			if rp := do(client, ls.base, &warm[first], 0, false); rp.err != nil || rp.cache != "hit" {
				return fmt.Errorf("warm-up hit: X-Cache %q, %v", rp.cache, rp.err)
			}
		}
		return nil
	})
	if ls != nil {
		defer ls.stop()
	}
	if err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, errNoOps
	}
	var counts [numClasses]int
	timelines := 0
	for i := range reqs {
		counts[reqs[i].class]++
		if reqs[i].class == classMiss && reqs[i].timeline {
			timelines++
		}
	}
	mix := map[string]int{"timeline_miss": timelines}
	for c, k := range counts {
		mix[classNames[c]] = k
	}
	rep.info["op_mix"] = mix
	rep.info["rate_per_s"] = serveRate
	rep.info["handler_cost_ms"] = handlerCostMs
	rep.info["jobs"] = map[string]int{"miss": sz.miss, "compare": sz.compare, "replay": sz.replay}
	rep.info["requests"] = len(reqs)
	rep.info["connections"] = 2

	mem := startMemDelta()
	loop, err := openLoop(client, ls.base, reqs, hk, tr != nil)
	if err != nil {
		return nil, err
	}
	replies, start := loop.replies, loop.start
	end := start.Add(time.Duration(loopSeconds * float64(time.Second)))
	mem.record(rep)

	// Latency runs from the scheduled send time; a failed request reads
	// +Inf, so it misses every percentile. Each latency is also divided by
	// the host index at its send time, interpolated between the loop's
	// kernel passes; lat[0] holds the raw latencies and lat[1] the
	// reference-host ones. A plain simulate miss's latency per job is its
	// policy's ns/job; the median resists the queueing delay a few misses
	// meet.
	var lat, rr, srpt [2][]float64
	var ok int
	var spanned, unspanned []float64 // plain-miss latencies, traced run
	for i := range reqs {
		r, rp := &reqs[i], &replies[i]
		rep.attempted++
		var orig *reply
		if r.orig >= 0 {
			orig = &replies[r.orig]
		}
		err := checkReply(r, rp, loop.origDone[i], orig)
		if err == nil && r.check {
			err = checkNorms(r, rp.body)
		}
		if err != nil {
			rep.fail("request %d (%s %s): %v", i, classNames[r.class], r.path, err)
			lat[0] = append(lat[0], math.Inf(1))
			lat[1] = append(lat[1], math.Inf(1))
			continue
		}
		ok++
		if rp.done.After(end) {
			end = rp.done
		}
		raw := float64(rp.done.Sub(start.Add(r.at)).Nanoseconds()) / 1e6
		x := loop.hostIndexAt(r.at)
		lat[0] = append(lat[0], raw)
		lat[1] = append(lat[1], raw/x)
		if r.class == classMiss && !r.timeline {
			for v, l := range [2]float64{raw, raw / x} {
				if r.policy == "RR" {
					rr[v] = append(rr[v], l*1e6/float64(r.jobs))
				} else {
					srpt[v] = append(srpt[v], l*1e6/float64(r.jobs))
				}
			}
			if rp.spanned {
				spanned = append(spanned, raw)
			} else {
				unspanned = append(unspanned, raw)
			}
		}
		if tr != nil {
			s := tr.begin("http.request", i, -1)
			tr.spans[s].Start, tr.spans[s].End = int64(rp.sent.Sub(tr.t0)), int64(rp.done.Sub(tr.t0))
			tr.spans[s].Dur = tr.spans[s].End - tr.spans[s].Start
		}
	}
	if tr == nil {
		rep.values["rr_ns_per_job"], rep.raw["rr_ns_per_job"] = median(rr[1]), median(rr[0])
		rep.values["srpt_ns_per_job"], rep.raw["srpt_ns_per_job"] = median(srpt[1]), median(srpt[0])
		rep.values["latency_p50_ms"], rep.raw["latency_p50_ms"] = median(lat[1]), median(lat[0])
		// The tail is the highest quantile, up to p99, that leaves ten
		// requests beyond it. The schedule's size is set by --seconds
		// alone, so the program's speed cannot move the quantile.
		q := min(0.99, 1-10/float64(len(reqs)))
		tail := quantile(lat[1], q)
		rep.values["latency_tail_ms"], rep.raw["latency_tail_ms"] = tail, quantile(lat[0], q)
		beyond := 0
		for _, l := range lat[1] {
			if l > tail {
				beyond++
			}
		}
		rep.info["tail_quantile"] = q
		rep.info["requests_beyond_tail"] = beyond
		rep.values["ops_per_s"] = float64(ok) / end.Sub(start).Seconds()
		// The generator's lateness says whether the open loop held its
		// schedule; the traced run reports it as loadgen.lag_p99_ms.
		rep.info["loadgen_lag_p99_ms"] = quantile(loop.lag, 0.99)
		return rep, nil
	}
	vars := ls.srv.Vars()
	hits, misses := varInt(vars, "cache_hits"), varInt(vars, "cache_misses")
	rep.values["serve.cache_hit_ratio"] = hits / math.Max(hits+misses, 1)
	rep.values["serve.rejected"] = varInt(vars, "errors")
	rep.values["loadgen.lag_p99_ms"] = quantile(loop.lag, 0.99)
	// Tracing overhead: every second request of the loop carried the span
	// header, so the plain misses with and without a span ran side by side
	// under the same host state.
	if len(spanned) > 0 && len(unspanned) > 0 {
		rep.values["tracing.overhead_pct"] = 100 * (median(spanned) - median(unspanned)) / median(unspanned)
	}
	ls.spans.mu.Lock()
	tr.spans = append(tr.spans, ls.spans.spans...)
	ls.spans.mu.Unlock()
	return rep, serveLadder(cfg, tr, rep, reqs, replies)
}

// serveLadder is the traced run's in-process half: the open loop's
// requests again, in order, through one fresh server's
// Handler().ServeHTTP, with a span around each call, and the miss,
// compare, timeline and decode ladders on each request's own inputs.
func serveLadder(cfg config, tr *tracer, rep *report, reqs []request, replies []reply) error {
	srv := serve.NewServer(newServeConfig())
	defer srv.Close()
	ws := core.NewWorkspace()
	var handler [numClasses]engineSums
	var timelineHandler engineSums
	var httpOver []float64
	var ladder, missHandler time.Duration
	var timeline, reference engineSums
	var drainAllocs uint64
	var drainJobs int
	deadline := time.Now().Add(time.Duration(cfg.seconds / 2 * float64(time.Second)))
	covered := 0
	for i := range reqs {
		if time.Now().After(deadline) {
			break
		}
		covered++
		r := &reqs[i]
		rec := httptest.NewRecorder()
		req := r.inProcessReq()
		s := tr.begin("serve.Handler.ServeHTTP", i, -1)
		srv.Handler().ServeHTTP(rec, req)
		d := tr.end(s)
		if r.class == classMiss && r.timeline {
			timelineHandler.add(d, 1)
		} else {
			handler[r.class].add(d, 1)
		}
		// The in-process server sees the requests one at a time, so every
		// hit finds its miss's entry; its bytes must match the loopback
		// server's.
		rep.attempted++
		rp := &replies[i]
		want := "miss"
		if r.class == classHit {
			want = "hit"
		}
		switch {
		case rec.Code != http.StatusOK:
			rep.fail("in-process request %d: status %d", i, rec.Code)
		case rec.Header().Get("X-Cache") != want:
			rep.fail("in-process request %d: X-Cache %q, want %q", i, rec.Header().Get("X-Cache"), want)
		case rp.err == nil && rp.status == http.StatusOK && !bytes.Equal(rp.body, rec.Body.Bytes()):
			rep.fail("in-process request %d: body differs from the loopback response", i)
		}
		if rp.err == nil {
			httpOver = append(httpOver, float64((rp.done.Sub(rp.sent)-d).Nanoseconds())/1e6)
		}

		switch r.class {
		case classMiss:
			if r.timeline {
				d, err := timelineLadder(tr, i, r, ws)
				if err != nil {
					return err
				}
				timeline.add(d, 1)
				break
			}
			missHandler += d
			d, err := missLadder(tr, i, r, ws)
			if err != nil {
				return err
			}
			ladder += d
		case classCompare:
			in, err := workload.FromSpec(r.spec, r.seed)
			if err != nil {
				return err
			}
			p, err := polspec.New("SETF")
			if err != nil {
				return err
			}
			s := tr.begin("core.reference.fast.RunWS", i, -1)
			_, err = fast.RunWS(in, p, core.Options{Machines: 1, Speed: 1}, ws)
			reference.add(tr.end(s), 1)
			if err != nil {
				return fmt.Errorf("SETF reference run: %w", err)
			}
		case classReplay:
			m0 := mallocs()
			rd, err := trace.MaybeGunzip(bytes.NewReader(r.body))
			if err != nil {
				return err
			}
			dec := trace.NewDecoder(rd, trace.DecodeOptions{})
			for {
				_, ok, err := dec.Next()
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				drainJobs++
			}
			drainAllocs += mallocs() - m0
		}
	}
	ms := func(s engineSums) float64 {
		if s.jobs == 0 {
			return 0
		}
		return float64(s.d.Nanoseconds()) / 1e6 / float64(s.jobs)
	}
	rep.values["serve.handler_miss_ms"] = ms(handler[classMiss])
	rep.values["serve.handler_hit_ms"] = ms(handler[classHit])
	rep.values["serve.handler_compare_ms"] = ms(handler[classCompare])
	rep.values["serve.handler_replay_ms"] = ms(handler[classReplay])
	rep.info["handler_timeline_ms"] = ms(timelineHandler)
	rep.values["http.overhead_ms"] = median(httpOver)
	nMiss := handler[classMiss].jobs
	for _, name := range []string{"workload.FromSpec", "fast.RunWS", "metrics.Summarize", "serve.encode"} {
		d, _ := tr.total(name, nil)
		v := 0.0
		if nMiss > 0 {
			v = float64(d.Nanoseconds()) / 1e6 / float64(nMiss)
		}
		rep.values[ladderMetric[name]] = v
	}
	rep.values["core.reference_ms"] = ms(reference)
	rep.values["stats.timeline_ms"] = ms(timeline)
	if drainJobs > 0 {
		rep.values["trace.allocs_per_job"] = float64(drainAllocs) / float64(drainJobs)
	}
	if missHandler > 0 {
		rep.values["bench.unaccounted_share"] = 1 - float64(ladder)/float64(missHandler)
	}
	rep.info["inprocess_requests"] = covered
	return nil
}

// ladderMetric maps a miss-ladder span to its per-layer metric.
var ladderMetric = map[string]string{
	"workload.FromSpec": "workload.fromspec_ms",
	"fast.RunWS":        "fast.simulate_ms",
	"metrics.Summarize": "metrics.summarize_ms",
	"serve.encode":      "serve.encode_ms",
}

// missLadder calls, one at a time, what a simulate miss does on its own
// inputs: generate the workload, run it, summarize the flows and encode
// the response. It returns the ladder's total time.
func missLadder(tr *tracer, op int, r *request, ws *core.Workspace) (time.Duration, error) {
	root := tr.begin("ladder.miss", op, -1)
	s := tr.begin("workload.FromSpec", op, root)
	in, err := workload.FromSpec(r.spec, r.seed)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	p, err := polspec.New(r.policy)
	if err != nil {
		return 0, err
	}
	s = tr.begin("fast.RunWS", op, root)
	res, err := fast.RunWS(in, p, core.Options{Machines: 1, Speed: 1}, ws)
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("metrics.Summarize", op, root)
	sum := metrics.Summarize(res.Flow)
	tr.end(s)
	resp := serve.SimulateResponse{
		Policy: res.Policy, Machines: res.Machines, Speed: res.Speed, Engine: core.EngineAuto.String(),
		N: len(res.Jobs), Events: res.Events,
		Norms: []serve.NormValue{{K: 1, Value: sum.L1}, {K: 2, Value: sum.L2}, {K: 3, Value: sum.L3}},
		Summary: serve.FlowSummary{MeanFlow: sum.MeanFlow, MaxFlow: sum.MaxFlow, Stddev: sum.Stddev,
			P50: sum.P50, P95: sum.P95, P99: sum.P99, Jain: sum.Jain},
	}
	s = tr.begin("serve.encode", op, root)
	_, err = json.Marshal(&resp)
	tr.end(s)
	return tr.end(root), err
}

// timelineLadder returns what a timeline:true miss adds: its run with
// stats.TimelineObserver attached, which keeps fast RR on its exact-epoch
// path, minus the same run without it.
func timelineLadder(tr *tracer, op int, r *request, ws *core.Workspace) (time.Duration, error) {
	in, err := workload.FromSpec(r.spec, r.seed)
	if err != nil {
		return 0, err
	}
	p, err := polspec.New(r.policy)
	if err != nil {
		return 0, err
	}
	opts := core.Options{Machines: 1, Speed: 1}
	s := tr.begin("rung.fast.RunWS-notimeline", op, -1)
	_, err1 := fast.RunWS(in, p, opts, ws)
	without := tr.end(s)
	opts.Observer = stats.NewTimelineObserver(1)
	s = tr.begin("rung.fast.RunWS-timeline", op, -1)
	_, err2 := fast.RunWS(in, p, opts, ws)
	with := tr.end(s)
	return with - without, firstErr(err1, err2)
}
