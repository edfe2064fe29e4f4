package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/metrics"
	"rrnorm/internal/policy"
	"rrnorm/internal/polspec"
	"rrnorm/internal/stats"
	"rrnorm/internal/trace"
	"rrnorm/internal/workload"
)

// replayTrace renders a deterministic Poisson workload as an NDJSON trace —
// the same bytes every call, so digests and responses are comparable across
// requests and runs.
func replayTrace(t *testing.T, n int) []byte {
	t.Helper()
	in := workload.PoissonLoad(stats.NewRNG(7), n, 2, 0.9, workload.ExpSizes{M: 1})
	var buf bytes.Buffer
	if err := trace.Encode(&buf, in.Jobs, trace.FormatNDJSON); err != nil {
		t.Fatalf("encode trace: %v", err)
	}
	return buf.Bytes()
}

func postReplay(t *testing.T, url, query string, body []byte, digest string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/replay?"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	if digest != "" {
		req.Header.Set("X-Replay-Digest", digest)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /v1/replay: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func TestReplayEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 300)

	resp, body := postReplay(t, ts.URL, "policy=RR&machines=2&norms=1,2,3", tr, "")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (no digest asserted)", got)
	}
	var rr ReplayResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if rr.Policy != "RR" || rr.Machines != 2 || rr.N != 300 {
		t.Errorf("response header = %q/%d machines/%d jobs, want RR/2/300", rr.Policy, rr.Machines, rr.N)
	}
	if len(rr.Norms) != 3 || rr.Norms[0].K != 1 || rr.Norms[2].K != 3 {
		t.Fatalf("norms = %+v, want k=1,2,3", rr.Norms)
	}
	for _, nv := range rr.Norms {
		if !(nv.Value > 0) {
			t.Errorf("norm k=%d is %v, want > 0", nv.K, nv.Value)
		}
	}
	if !(rr.Makespan > 0) || !(rr.MaxFlow > 0) || rr.Events <= 0 {
		t.Errorf("aggregates makespan=%v maxflow=%v events=%d, want all positive",
			rr.Makespan, rr.MaxFlow, rr.Events)
	}

	// The replayed norms must bit-match a materialized run of the same
	// jobs with the same streaming observer: the replay is just a
	// different route to the same schedule (TestStreamingWall* proves this
	// in general; here it pins the HTTP path end-to-end).
	in := workload.PoissonLoad(stats.NewRNG(7), 300, 2, 0.9, workload.ExpSizes{M: 1})
	p, err := polspec.New("RR")
	if err != nil {
		t.Fatalf("polspec: %v", err)
	}
	sn := metrics.NewStreamNorm(1, 2, 3)
	if _, err := fast.Run(in, p, core.Options{Machines: 2, Speed: 1, Observer: sn}); err != nil {
		t.Fatalf("materialized run: %v", err)
	}
	for i, k := range []int{1, 2, 3} {
		if got, want := rr.Norms[i].Value, sn.Norm(k); got != want {
			t.Errorf("ℓ%d: replay %v != materialized %v", k, got, want)
		}
	}
}

func TestReplayByteDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 200)
	_, b1 := postReplay(t, ts.URL, "policy=SRPT&machines=2", tr, "")
	_, b2 := postReplay(t, ts.URL, "policy=SRPT&machines=2", tr, "")
	if !bytes.Equal(b1, b2) {
		t.Fatalf("replay responses differ across identical requests:\n%s\n%s", b1, b2)
	}
}

func TestReplayDigestCaching(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 150)
	sum := sha256.Sum256(tr)
	digest := hex.EncodeToString(sum[:])

	resp1, b1 := postReplay(t, ts.URL, "policy=FCFS", tr, digest)
	if resp1.StatusCode != 200 {
		t.Fatalf("first: status %d, body %s", resp1.StatusCode, b1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	resp2, b2 := postReplay(t, ts.URL, "policy=FCFS", tr, digest)
	if resp2.StatusCode != 200 {
		t.Fatalf("second: status %d, body %s", resp2.StatusCode, b2)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("cached body differs from computed body")
	}
	// Same digest, different params → different key, fresh compute.
	resp3, b3 := postReplay(t, ts.URL, "policy=FCFS&machines=2", tr, digest)
	if resp3.StatusCode != 200 {
		t.Fatalf("third: status %d, body %s", resp3.StatusCode, b3)
	}
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("param-changed X-Cache = %q, want miss", got)
	}
	// Uppercase digests normalize to the same key.
	resp4, _ := postReplay(t, ts.URL, "policy=FCFS", tr, strings.ToUpper(digest))
	if got := resp4.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("uppercase-digest X-Cache = %q, want hit", got)
	}
}

func TestReplayDigestMismatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 100)
	wrong := strings.Repeat("ab", sha256.Size)
	resp, body := postReplay(t, ts.URL, "policy=RR", tr, wrong)
	wantError(t, resp, body, 400, "bad_request")
	if !strings.Contains(string(body), "X-Replay-Digest mismatch") {
		t.Errorf("error body %s does not name the digest mismatch", body)
	}
	// The mismatch must not have been cached under the asserted key: the
	// same request with the true body bytes under that digest would be a
	// poisoned hit. (It is a mismatch again, but computed fresh.)
	resp2, body2 := postReplay(t, ts.URL, "policy=RR", tr, wrong)
	wantError(t, resp2, body2, 400, "bad_request")
	if got := resp2.Header.Get("X-Cache"); got == "hit" {
		t.Errorf("digest-mismatch error was served from cache")
	}
}

func TestReplayBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	tr := replayTrace(t, 50)
	cases := []struct {
		name     string
		query    string
		digest   string
		fragment string
	}{
		{"missing policy", "", "", "policy query parameter is required"},
		{"unknown policy", "policy=NOPE", "", ""},
		{"bad machines", "policy=RR&machines=0", "", "machines must be a positive integer"},
		{"bad speed", "policy=RR&speed=-1", "", "speed must be a positive finite number"},
		{"bad engine", "policy=RR&engine=warp", "", ""},
		{"bad norms", "policy=RR&norms=1,zz", "", "norms must be a comma-separated list"},
		{"norm k too big", "policy=RR&norms=999", "", "norm k must be in"},
		{"bad format", "policy=RR&format=xml", "", ""},
		{"bad sort", "policy=RR&sort=maybe", "", "sort must be"},
		{"short digest", "policy=RR", "abcd", "hex SHA-256"},
		{"non-hex digest", "policy=RR", strings.Repeat("zz", sha256.Size), "not valid hex"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postReplay(t, ts.URL, tc.query, tr, tc.digest)
			wantError(t, resp, body, 400, "bad_request")
			if tc.fragment != "" && !strings.Contains(string(body), tc.fragment) {
				t.Errorf("error body %s missing %q", body, tc.fragment)
			}
		})
	}
}

func TestReplayMalformedTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("garbage line names the line", func(t *testing.T) {
		body := []byte(`{"id":0,"release":0,"size":1}` + "\n" + `not json` + "\n")
		resp, b := postReplay(t, ts.URL, "policy=RR", body, "")
		wantError(t, resp, b, 400, "bad_request")
		if !strings.Contains(string(b), "line 2") {
			t.Errorf("error body %s does not name line 2", b)
		}
	})

	t.Run("out of order is 400 without sort", func(t *testing.T) {
		body := []byte(`{"id":0,"release":5,"size":1}` + "\n" + `{"id":1,"release":1,"size":1}` + "\n")
		resp, b := postReplay(t, ts.URL, "policy=RR", body, "")
		wantError(t, resp, b, 400, "bad_request")
		if !strings.Contains(string(b), "release-ordered") {
			t.Errorf("error body %s does not explain the ordering contract", b)
		}
	})

	t.Run("sort opt-in accepts out of order", func(t *testing.T) {
		body := []byte(`{"id":0,"release":5,"size":1}` + "\n" + `{"id":1,"release":1,"size":1}` + "\n")
		resp, b := postReplay(t, ts.URL, "policy=RR&sort=1", body, "")
		if resp.StatusCode != 200 {
			t.Fatalf("status %d, body %s", resp.StatusCode, b)
		}
		var rr ReplayResponse
		if err := json.Unmarshal(b, &rr); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if rr.N != 2 {
			t.Errorf("n = %d, want 2", rr.N)
		}
	})

	t.Run("empty body is 400", func(t *testing.T) {
		resp, b := postReplay(t, ts.URL, "policy=RR", nil, "")
		wantError(t, resp, b, 400, "bad_request")
	})
}

func TestReplayJobLimit(t *testing.T) {
	// A limitSource over a tiny max proves the cap path end-to-end without
	// a 5M-job body: drive the source directly through the same error route
	// the handler uses.
	src := &limitSource{src: core.NewInstanceSource(&core.Instance{Jobs: []core.Job{
		{ID: 0, Release: 0, Size: 1},
		{ID: 1, Release: 1, Size: 1},
		{ID: 2, Release: 2, Size: 1},
	}}), max: 2}
	var err error
	for {
		_, ok, e := src.Next()
		if e != nil {
			err = e
			break
		}
		if !ok {
			break
		}
	}
	if err == nil {
		t.Fatal("limitSource let 3 jobs through a max of 2")
	}
	aerr := toReplayError(err)
	if aerr.Status != 400 || !strings.Contains(aerr.Message, "replay limit") {
		t.Errorf("limit error = %+v, want 400 naming the replay limit", aerr)
	}
}

func TestReplayBodyTooLarge(t *testing.T) {
	// Same reasoning: prove the reader rejects (not truncates) past the cap
	// and that the error maps to a 400 — with a small stand-in limit.
	lr := &limitReader{r: strings.NewReader(strings.Repeat("x", 100)), left: 10}
	_, err := io.ReadAll(lr)
	if err == nil {
		t.Fatal("limitReader truncated instead of failing")
	}
	if !strings.Contains(err.Error(), "replay limit") {
		t.Errorf("limit error %v does not name the replay limit", err)
	}
}

// TestLimitSourceAllocBudget: the /v1/replay job cap adds no allocation
// per pulled job to the streaming path it wraps — a replay's count stays
// the source's one-shot constant when the trace grows fourfold.
func TestLimitSourceAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is disturbed by -short test interleavings")
	}
	ws := core.NewWorkspace()
	opts := core.Options{Machines: 2, Speed: 1, Engine: core.EngineFast}
	count := func(n int) float64 {
		run := func() {
			src := &limitSource{src: workload.StreamLoad(stats.NewRNG(3), n, 2, 0.9, workload.ExpSizes{M: 1}), max: n}
			if _, err := fast.RunStream(src, policy.NewRR(), opts, ws); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	if small, large := count(10_000), count(40_000); large != small {
		t.Errorf("allocs/run grew with n: %v at 10k jobs vs %v at 40k — the per-job budget is 0", small, large)
	}
}
