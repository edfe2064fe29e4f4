package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/hunt"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/trace"
)

// POST /v1/replay streams a job trace — the request body, NDJSON or CSV —
// through the engines' JobSource path: jobs are decoded lazily on a pool
// worker and folded into streaming ℓk-norms, so the server's memory is
// bounded by the schedule's alive set however long the trace is. Run
// parameters travel as query parameters (the body is the trace):
//
//	policy   policy spec (required)
//	machines, speed, engine, norms      as in /v1/simulate
//	format   ndjson (default) or csv
//	sort     1/true buffers and sorts an out-of-order trace (costs O(n))
//
// Caching: a body stream cannot be hashed before it is consumed, so replay
// responses are cached only when the client asserts the body's identity
// upfront with an X-Replay-Digest header (hex SHA-256 of the exact body
// bytes). The digest is verified — the server hashes the body as it
// decodes and a mismatch is a 400, which is never cached (the cache stores
// no errors) — so a wrong digest cannot poison the cache. Concurrent
// identical requests dedup through the same singleflight as /v1/simulate.
//
// Compression: a request may send the trace gzip-compressed by declaring
// `Content-Encoding: gzip`. The body limit and an asserted X-Replay-Digest
// apply to the bytes on the wire — the compressed stream — so a client can
// hash the file it uploads without decompressing it; the decompressed
// stream is separately capped (MaxReplayGunzipBytes) so a tiny gzip bomb
// cannot stream gigabytes through the decoder. A malformed gzip body is a
// 400, like any other malformed trace.
const (
	// MaxReplayJobs bounds the jobs decoded from one replay body.
	MaxReplayJobs = 5_000_000
	// MaxReplayBodyBytes bounds a replay body — the wire bytes, compressed
	// or not. Replays stream, so this is far above MaxBodyBytes without a
	// memory cost.
	MaxReplayBodyBytes = 256 << 20
	// MaxReplayGunzipBytes bounds the decompressed stream of a
	// gzip-encoded replay body (gzip deflates NDJSON traces ~10×, so this
	// matches MaxReplayBodyBytes' headroom without letting a gzip bomb
	// through).
	MaxReplayGunzipBytes = 1 << 30
)

// ReplayResponse is the body of a successful POST /v1/replay — the
// streaming aggregates plus the requested ℓk-norms; per-job arrays never
// exist server-side.
type ReplayResponse struct {
	Policy        string      `json:"policy"`
	Machines      int         `json:"machines"`
	Speed         float64     `json:"speed"`
	MachineSpeeds []float64   `json:"machine_speeds,omitempty"`
	PreemptCost   float64     `json:"preempt_cost,omitempty"`
	Engine        string      `json:"engine"`
	N             int         `json:"n"`
	Events        int         `json:"events"`
	Makespan      float64     `json:"makespan"`
	MaxFlow       float64     `json:"max_flow"`
	Norms         []NormValue `json:"norms"`
}

// replayParams is a validated replay request minus its body.
type replayParams struct {
	policy string
	opts   core.Options
	norms  []int
	format trace.Format
	sort   bool
	gzip   bool   // body arrives gzip-compressed (Content-Encoding: gzip)
	digest string // lowercase hex SHA-256 of the body's wire bytes; "" disables caching
}

func parseReplayParams(r *http.Request) (*replayParams, *apiError) {
	q := r.URL.Query()
	rp := &replayParams{policy: q.Get("policy")}
	if rp.policy == "" {
		return nil, badRequest("policy query parameter is required")
	}
	if _, err := polspec.New(rp.policy); err != nil {
		return nil, badRequest("%v", err)
	}
	machines := 0
	if v := q.Get("machines"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return nil, badRequest("machines must be a positive integer, got %q", v)
		}
		machines = n
	}
	speed := 1.0
	if v := q.Get("speed"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil || !(f > 0) || math.IsInf(f, 0) {
			return nil, badRequest("speed must be a positive finite number, got %q", v)
		}
		speed = f
	}
	var machineSpeeds []float64
	if v := q.Get("machine_speeds"); v != "" {
		for _, part := range strings.Split(v, ",") {
			f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return nil, badRequest("machine_speeds must be a comma-separated list of numbers, got %q", v)
			}
			machineSpeeds = append(machineSpeeds, f)
		}
	}
	preemptCost := 0.0
	if v := q.Get("preempt_cost"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, badRequest("preempt_cost must be a number, got %q", v)
		}
		preemptCost = f
	}
	mm, machines, aerr := validateMachineModel(machineSpeeds, preemptCost, machines)
	if aerr != nil {
		return nil, aerr
	}
	eng, err := core.ParseEngineKind(q.Get("engine"))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rp.opts = core.Options{Machines: machines, Speed: speed, Engine: eng, MachineModel: mm}
	rp.norms = []int{1, 2, 3}
	if v := q.Get("norms"); v != "" {
		rp.norms = rp.norms[:0]
		for _, part := range strings.Split(v, ",") {
			k, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return nil, badRequest("norms must be a comma-separated list of integers, got %q", v)
			}
			if k < 1 || k > MaxNormK {
				return nil, badRequest("norm k must be in [1, %d], got %d", MaxNormK, k)
			}
			rp.norms = append(rp.norms, k)
		}
		if len(rp.norms) > MaxNorms {
			return nil, badRequest("at most %d norms per request, got %d", MaxNorms, len(rp.norms))
		}
	}
	if v := q.Get("format"); v != "" {
		f, err := trace.ParseFormat(v)
		if err != nil {
			return nil, badRequest("%v", err)
		}
		rp.format = f
	}
	switch v := q.Get("sort"); v {
	case "", "0", "false":
	case "1", "true":
		rp.sort = true
	default:
		return nil, badRequest("sort must be 0/1/true/false, got %q", v)
	}
	switch ce := strings.ToLower(strings.TrimSpace(r.Header.Get("Content-Encoding"))); ce {
	case "", "identity":
	case "gzip":
		rp.gzip = true
	default:
		return nil, badRequest("unsupported Content-Encoding %q (want gzip or identity)", ce)
	}
	if d := r.Header.Get("X-Replay-Digest"); d != "" {
		d = strings.ToLower(strings.TrimSpace(d))
		if len(d) != sha256.Size*2 {
			return nil, badRequest("X-Replay-Digest must be a hex SHA-256 (64 chars), got %d", len(d))
		}
		if _, err := hex.DecodeString(d); err != nil {
			return nil, badRequest("X-Replay-Digest is not valid hex")
		}
		rp.digest = d
	}
	return rp, nil
}

// cacheKey is only meaningful when a digest was asserted: it binds the
// body's identity to every run parameter that shapes the response.
func (rp *replayParams) cacheKey() string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	h.Write([]byte("rrserve/replay/v1\x00"))
	h.Write([]byte(rp.digest))
	h.Write([]byte{0})
	h.Write([]byte(rp.policy))
	h.Write([]byte{0})
	u64(uint64(int64(rp.opts.Machines)))
	u64(math.Float64bits(rp.opts.Speed))
	u64(uint64(int64(rp.opts.Engine)))
	// Machine model: length-prefixed speeds then the preemption cost (see
	// simSpec.cacheKey for the collision argument).
	u64(uint64(len(rp.opts.MachineModel.Speeds)))
	for _, sp := range rp.opts.MachineModel.Speeds {
		u64(math.Float64bits(sp))
	}
	u64(math.Float64bits(rp.opts.MachineModel.PreemptCost))
	u64(uint64(int64(rp.format)))
	if rp.sort {
		u64(1)
	} else {
		u64(0)
	}
	// The digest names the wire bytes; whether they are a gzip stream or
	// the raw trace changes the response, so the flag is part of the key.
	if rp.gzip {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(len(rp.norms)))
	for _, k := range rp.norms {
		u64(uint64(int64(k)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.requests.Add(1)
	rp, aerr := parseReplayParams(r)
	if aerr != nil {
		s.writeError(w, aerr)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	type result struct {
		b   []byte
		err error
	}
	compute := func() ([]byte, error) {
		ch := make(chan result, 1) // buffered: the task must never block if the waiter gave up
		if !s.pool.TrySubmit(func() {
			b, err := s.runReplay(ctx, rp, r.Body)
			ch <- result{b, err}
		}) {
			return nil, errOverloaded
		}
		select {
		case res := <-ch:
			return res.b, res.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var body []byte
	var outcome Outcome
	var err error
	if rp.digest != "" {
		// Deduped + cached under the asserted body identity. A deduped
		// follower's body is never read — its digest already named the
		// bytes the leader is computing on.
		body, outcome, err = s.cache.Do(ctx, rp.cacheKey(), compute)
	} else {
		body, err = compute()
		outcome = OutcomeMiss
	}
	s.observe(time.Since(start))
	if err != nil {
		s.writeError(w, toReplayError(err))
		return
	}
	writeBody(w, body, outcome)
}

// runReplay decodes and simulates one replay body on a pool worker.
func (s *Server) runReplay(ctx context.Context, rp *replayParams, body io.Reader) ([]byte, error) {
	p, err := polspec.New(rp.policy) // fresh instance: policies are stateful
	if err != nil {
		return nil, badRequest("%v", err)
	}
	// The body is hashed as it is decoded; an asserted digest is verified
	// after the run. The limit reader rejects (not truncates) oversized
	// bodies — silent truncation would simulate a prefix of the trace.
	// Both hash and limit see the wire bytes: decompression, when the
	// client declared Content-Encoding: gzip, layers on top, with its own
	// output cap so a gzip bomb stops at MaxReplayGunzipBytes.
	h := sha256.New()
	lr := &limitReader{r: io.TeeReader(body, h), left: MaxReplayBodyBytes}
	var tr io.Reader = lr
	if rp.gzip {
		zr, err := trace.NewGzipReader(lr)
		if err != nil {
			return nil, badRequest("malformed gzip body: %v", err)
		}
		tr = &limitReader{r: zr, left: MaxReplayGunzipBytes, errLimit: errGunzipTooLarge}
	}
	var src core.JobSource = trace.NewDecoder(tr, trace.DecodeOptions{Format: rp.format, Sort: rp.sort})
	src = &limitSource{src: src, max: MaxReplayJobs}

	opts := rp.opts
	opts.Context = ctx
	sn := metrics.NewStreamNorm(rp.norms...)
	obs := []core.Observer{sn}
	var sm *hunt.StreamMonitor
	if s.cfg.MonitorAnomalies {
		sm = hunt.NewStreamMonitorModel(opts.Machines, opts.Speed, opts.MachineModel)
		obs = append(obs, sm)
	}
	opts.Observer = core.Multi(obs...)
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	sum, err := fast.RunStream(src, p, opts, ws)
	if err != nil {
		return nil, err
	}
	if sum.N == 0 {
		return nil, badRequest("trace contains no jobs")
	}
	if sm != nil {
		if n := len(sm.Anomalies()); n > 0 {
			s.anomalies.Add(int64(n))
		}
	}
	if rp.digest != "" {
		// Drain whatever the scanner did not consume (it reads to EOF on
		// success, so this is usually a no-op) and verify the assertion.
		if _, err := io.Copy(io.Discard, lr); err != nil {
			return nil, err
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != rp.digest {
			return nil, badRequest("X-Replay-Digest mismatch: body hashes to %s", got)
		}
	}
	out := &ReplayResponse{
		Policy:        sum.Policy,
		Machines:      sum.Machines,
		Speed:         sum.Speed,
		MachineSpeeds: append([]float64(nil), sum.MachineModel.Speeds...),
		PreemptCost:   sum.MachineModel.PreemptCost,
		Engine:        opts.Engine.String(),
		N:             sum.N,
		Events:        sum.Events,
		Makespan:      sum.Makespan,
		MaxFlow:       sum.MaxFlow,
		Norms:         make([]NormValue, 0, len(rp.norms)),
	}
	for _, k := range rp.norms {
		out.Norms = append(out.Norms, NormValue{K: k, Value: sn.Norm(k)})
	}
	return json.Marshal(out)
}

// toReplayError extends toAPIError with the replay-specific 400s: decode
// failures (malformed lines, out-of-order releases) and source-contract
// violations are the client's trace's fault, never a 500.
func toReplayError(err error) *apiError {
	var aerr *apiError
	if errors.As(err, &aerr) {
		return aerr
	}
	var derr *trace.DecodeError
	if errors.As(err, &derr) {
		return badRequest("%v", derr) // already "trace: line N: ..."
	}
	if errors.Is(err, core.ErrBadSource) {
		return badRequest("%v", err)
	}
	return mapSimError(err)
}

// errBodyTooLarge and errGunzipTooLarge surface through the decoder as
// read failures (and therefore as 400s, like any malformed trace).
var (
	errBodyTooLarge   = fmt.Errorf("body exceeds the %d-byte replay limit", MaxReplayBodyBytes)
	errGunzipTooLarge = fmt.Errorf("gzip body decompresses past the %d-byte replay limit", MaxReplayGunzipBytes)
)

// limitReader is io.LimitReader that fails instead of truncating.
type limitReader struct {
	r        io.Reader
	left     int64
	errLimit error // returned at the limit; nil means errBodyTooLarge
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.left <= 0 {
		if l.errLimit != nil {
			return 0, l.errLimit
		}
		return 0, errBodyTooLarge
	}
	if int64(len(p)) > l.left {
		p = p[:l.left]
	}
	n, err := l.r.Read(p)
	l.left -= int64(n)
	return n, err
}

// errTooManyReplayJobs maps to 400 through toReplayError's apiError branch
// (the engine wraps source errors, errors.As unwraps them).
var errTooManyReplayJobs = badRequest("trace exceeds the %d-job replay limit", MaxReplayJobs)

// limitSource caps how many jobs a replay may pull.
type limitSource struct {
	src core.JobSource
	n   int
	max int
}

func (l *limitSource) Next() (core.Job, bool, error) {
	j, ok, err := l.src.Next()
	if ok {
		l.n++
		if l.n > l.max {
			return core.Job{}, false, errTooManyReplayJobs
		}
	}
	return j, ok, err
}
