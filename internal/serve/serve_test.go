package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"rrnorm"
	"rrnorm/internal/core"
	"rrnorm/internal/metrics"
	"rrnorm/internal/polspec"
	"rrnorm/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// newTestServer builds a Server and an httptest front end, torn down with
// the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, b
}

func get(t *testing.T, url, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp, b
}

// wantError asserts a structured error body with the given status and code.
func wantError(t *testing.T, resp *http.Response, body []byte, status int, code string) {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatalf("error body is not structured JSON: %v (%s)", err, body)
	}
	if e.Error.Code != code {
		t.Fatalf("error code %q, want %q (message %q)", e.Error.Code, code, e.Error.Message)
	}
	if e.Error.Message == "" {
		t.Fatal("error message is empty")
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from golden.\n got: %s\nwant: %s", name, got, want)
	}
}

const pinnedSimulate = `{"spec":"poisson:n=50,load=0.8,dist=exp","seed":7,"policy":"RR","machines":1,"speed":2}`

func TestSimulateHappyPathMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL, "/v1/simulate", pinnedSimulate)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get("X-Cache"); h != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", h)
	}

	// The served bytes must be exactly the JSON of a direct library call.
	in := rrnorm.FromSpecMust("poisson:n=50,load=0.8,dist=exp", 7)
	res, err := rrnorm.Simulate(in, "RR", rrnorm.Options{Machines: 1, Speed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(buildResponse(res, []int{1, 2, 3}, false, rrnorm.EngineAuto))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("served bytes differ from direct rrnorm.Simulate:\n got %s\nwant %s", body, want)
	}

	// Second identical request: a cache hit with byte-identical body.
	resp2, body2 := post(t, ts.URL, "/v1/simulate", pinnedSimulate)
	if h := resp2.Header.Get("X-Cache"); h != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", h)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit returned different bytes than the miss")
	}
}

// TestBuildResponseOwnsDetail pins buildResponse's copies of the slices it
// echoes. The response is marshaled after the workspace goes back to its
// pool, and the workspace's next run overwrites Flow, Completion and
// MachineModel.Speeds in place. No static check sees an alias here
// (buildResponse only sees a parameter), and the HTTP tests' repeated
// detail requests are cache hits, so this is the only test that does.
func TestBuildResponseOwnsDetail(t *testing.T) {
	res := &core.Result{
		Policy:       "RR",
		Machines:     2,
		Speed:        1,
		MachineModel: core.Machines{Speeds: []float64{2, 1}},
		Jobs:         make([]core.Job, 3),
		Completion:   []float64{1.5, 2.5, 4},
		Flow:         []float64{1.5, 2, 3},
		Events:       6,
	}
	resp := buildResponse(res, []int{1, 2}, true, core.EngineAuto)
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Flow {
		res.Flow[i], res.Completion[i] = -1, -1
	}
	for i := range res.MachineModel.Speeds {
		res.MachineModel.Speeds[i] = 9
	}
	got, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("response changed when the workspace's buffers were reused:\n got %s\nwant %s", got, want)
	}
}

// TestBuildResponseNormsMatchLkNorm requires every reported norm, in the
// requested order, to carry LkNorm's bits: k = 1, 2, 3 come from the
// response's one Summarize call, any other k from LkNorm itself.
func TestBuildResponseNormsMatchLkNorm(t *testing.T) {
	in := rrnorm.FromSpecMust("poisson:n=300,load=0.9,dist=pareto", 5)
	res, err := rrnorm.Simulate(in, "SRPT", rrnorm.Options{Machines: 2, Speed: 1})
	if err != nil {
		t.Fatal(err)
	}
	norms := []int{3, 1, 4, 2, 1, 7}
	resp := buildResponse(res, norms, false, core.EngineAuto)
	if len(resp.Norms) != len(norms) {
		t.Fatalf("%d norms reported, %d requested", len(resp.Norms), len(norms))
	}
	for i, k := range norms {
		got, want := resp.Norms[i], metrics.LkNorm(res.Flow, k)
		if got.K != k || math.Float64bits(got.Value) != math.Float64bits(want) {
			t.Errorf("norm %d = {k=%d %v}, want {k=%d %v}", i, got.K, got.Value, k, want)
		}
	}
}

func TestGoldenResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		golden, path, body string
	}{
		{"simulate_rr.golden.json", "/v1/simulate", pinnedSimulate},
		{"simulate_srpt_detail.golden.json", "/v1/simulate",
			`{"jobs":[{"id":1,"release":0,"size":3},{"id":2,"release":1,"size":2},{"id":3,"release":1,"size":1}],` +
				`"policy":"SRPT","norms":[1,2],"detail":true}`},
		{"compare.golden.json", "/v1/compare",
			`{"spec":"bursts:bursts=3,size=5,period=4,dist=exp,mean=1","seed":3,` +
				`"policies":["RR","SRPT","FCFS","LAPS:beta=0.3"],"norms":[1,2,3]}`},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL, tc.path, tc.body)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d: %s", tc.golden, resp.StatusCode, body)
		}
		checkGolden(t, tc.golden, body)
	}
	resp, body := get(t, ts.URL, "/v1/policies")
	if resp.StatusCode != 200 {
		t.Fatalf("policies: status %d", resp.StatusCode)
	}
	checkGolden(t, "policies.golden.json", body)
}

func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
	}{
		{"malformed JSON", `{"spec": "poisson:n=10"`},
		{"not JSON at all", `policy=RR`},
		{"unknown field", `{"spec":"poisson:n=10","policy":"RR","bogus":1}`},
		{"trailing garbage", `{"spec":"poisson:n=10","policy":"RR"} {}`},
		{"neither spec nor jobs", `{"policy":"RR"}`},
		{"both spec and jobs", `{"spec":"poisson:n=10","jobs":[{"id":1,"size":1}],"policy":"RR"}`},
		{"missing policy", `{"spec":"poisson:n=10"}`},
		{"unknown policy", `{"spec":"poisson:n=10","policy":"NOPE"}`},
		{"bad policy param", `{"spec":"poisson:n=10","policy":"LAPS:nope=1"}`},
		{"malformed spec", `{"spec":"poisson:n==","policy":"RR"}`},
		{"unknown spec kind", `{"spec":"zipf:n=10","policy":"RR"}`},
		{"file-backed spec", `{"spec":"trace:path=/etc/passwd","policy":"RR"}`},
		{"negative n", `{"spec":"poisson:n=-5","policy":"RR"}`},
		{"spec too large", `{"spec":"poisson:n=99999999","policy":"RR"}`},
		{"cascade blowup", `{"spec":"cascade:levels=40","policy":"RR"}`},
		{"rrstream blowup", `{"spec":"rrstream:groups=10000,m=10000","policy":"RR"}`},
		{"bad machines", `{"spec":"poisson:n=10","policy":"RR","machines":-1}`},
		{"bad speed", `{"spec":"poisson:n=10","policy":"RR","speed":-2}`},
		{"bad engine", `{"spec":"poisson:n=10","policy":"RR","engine":"warp"}`},
		{"bad norm k", `{"spec":"poisson:n=10","policy":"RR","norms":[0]}`},
		{"duplicate job ids", `{"jobs":[{"id":1,"size":1},{"id":1,"size":2}],"policy":"RR"}`},
		{"negative job size", `{"jobs":[{"id":1,"size":-1}],"policy":"RR"}`},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL, "/v1/simulate", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
			continue
		}
		wantError(t, resp, body, 400, "bad_request")
	}
}

func TestCompareBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL, "/v1/compare", `{"spec":"poisson:n=10","policies":[]}`)
	wantError(t, resp, body, 400, "bad_request")
	many := `["RR"` + strings.Repeat(`,"RR"`, MaxComparePolicies) + `]`
	resp, body = post(t, ts.URL, "/v1/compare", `{"spec":"poisson:n=10","policies":`+many+`}`)
	wantError(t, resp, body, 400, "bad_request")
	resp, body = post(t, ts.URL, "/v1/compare", `{"spec":"poisson:n=10","policies":["RR","NOPE"]}`)
	wantError(t, resp, body, 400, "bad_request")
}

func TestQueueOverflowReturns429(t *testing.T) {
	entered := make(chan struct{}, 16)
	release := make(chan struct{})
	s, ts := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		testHookBeforeRun: func() {
			entered <- struct{}{}
			<-release
		},
	})
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	// Distinct bodies → distinct cache keys, so no singleflight dedup.
	body := func(seed int) string {
		return fmt.Sprintf(`{"spec":"poisson:n=20","seed":%d,"policy":"RR"}`, seed)
	}
	statuses := make(chan int, 2)
	bgPost := func(seed int) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body(seed)))
		if err != nil {
			statuses <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go bgPost(1)
	<-entered // worker is now held mid-task
	go bgPost(2)
	// Wait until request 2 occupies the one queue slot.
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("request 2 never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp, bodyBytes := post(t, ts.URL, "/v1/simulate", body(3))
	wantError(t, resp, bodyBytes, 429, "overloaded")
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After")
	}

	close(release)
	released = true
	for i := 0; i < 2; i++ {
		if st := <-statuses; st != 200 {
			t.Fatalf("held request finished with status %d, want 200", st)
		}
	}
}

func TestDeadlineExceededReturns504(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 5 * time.Millisecond})
	// The reference engine on 50k Poisson jobs takes far longer than 5ms;
	// the context poll in the simulation loop must abort it promptly.
	start := time.Now()
	resp, body := post(t, ts.URL, "/v1/simulate",
		`{"spec":"poisson:n=50000,load=0.95,dist=exp","policy":"RR","engine":"reference"}`)
	wantError(t, resp, body, 504, "deadline_exceeded")
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("504 took %v; cancellation is not reaching the engine", d)
	}
}

func TestCompareCanceledPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: 30 * time.Millisecond})
	// 8 reference-engine simulations of 20k jobs each would run for minutes
	// sequentially; a canceled compare must stop scheduling remaining
	// policies (par.ForEachCtx) and cancel the running ones (engine ctx
	// polls), so the 504 arrives promptly.
	start := time.Now()
	resp, body := post(t, ts.URL, "/v1/compare",
		`{"spec":"poisson:n=20000,load=0.95,dist=exp","engine":"reference",`+
			`"policies":["RR","SRPT","SJF","FCFS","SETF","LAPS","MLFQ","PROP"]}`)
	wantError(t, resp, body, 504, "deadline_exceeded")
	if d := time.Since(start); d > 15*time.Second {
		t.Fatalf("canceled compare took %v", d)
	}
}

func TestCompareMatchesSimulatePerPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"spec":"staircase:n=12","policies":["RR","SRPT","FCFS"],"machines":2,"norms":[2]}`
	resp, body := post(t, ts.URL, "/v1/compare", req)
	if resp.StatusCode != 200 {
		t.Fatalf("compare: %d %s", resp.StatusCode, body)
	}
	var cr CompareResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.N != 12 || len(cr.Policies) != 3 {
		t.Fatalf("compare shape: n=%d policies=%d", cr.N, len(cr.Policies))
	}
	for _, entry := range cr.Policies {
		sresp, sbody := post(t, ts.URL, "/v1/simulate",
			fmt.Sprintf(`{"spec":"staircase:n=12","policy":%q,"machines":2,"norms":[2]}`, entry.Policy))
		if sresp.StatusCode != 200 {
			t.Fatalf("simulate %s: %d", entry.Policy, sresp.StatusCode)
		}
		var sr SimulateResponse
		if err := json.Unmarshal(sbody, &sr); err != nil {
			t.Fatal(err)
		}
		if len(sr.Norms) != 1 || sr.Norms[0] != entry.Norms[0] {
			t.Fatalf("%s: compare norm %v != simulate norm %v", entry.Policy, entry.Norms, sr.Norms)
		}
		if sr.Summary != entry.Summary {
			t.Fatalf("%s: compare summary %+v != simulate summary %+v", entry.Policy, entry.Summary, sr.Summary)
		}
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, "/v1/simulate", pinnedSimulate)
	post(t, ts.URL, "/v1/simulate", pinnedSimulate) // hit

	resp, body := get(t, ts.URL, "/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	var m struct {
		RRServe map[string]any `json:"rrserve"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics is not JSON: %v\n%s", err, body)
	}
	for _, key := range []string{
		"requests", "errors", "cache_hits", "cache_misses", "cache_dedups",
		"cache_entries", "inflight", "queue_depth", "running",
		"service_time_p50", "service_time_p99",
	} {
		if _, ok := m.RRServe[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if hits, _ := m.RRServe["cache_hits"].(float64); hits < 1 {
		t.Errorf("cache_hits = %v, want ≥ 1", m.RRServe["cache_hits"])
	}
	if reqs, _ := m.RRServe["requests"].(float64); reqs < 2 {
		t.Errorf("requests = %v, want ≥ 2", m.RRServe["requests"])
	}
	if p50, ok := m.RRServe["service_time_p50"].(float64); !ok || p50 <= 0 {
		t.Errorf("service_time_p50 = %v, want > 0", m.RRServe["service_time_p50"])
	}

	resp, body = get(t, ts.URL, "/healthz")
	if resp.StatusCode != 200 || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

func TestPprofGatedByFlag(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, _ := get(t, off.URL, "/debug/pprof/")
	if resp.StatusCode != 404 {
		t.Fatalf("pprof without flag: %d, want 404", resp.StatusCode)
	}
	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, _ = get(t, on.URL, "/debug/pprof/")
	if resp.StatusCode != 200 {
		t.Fatalf("pprof with flag: %d, want 200", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := get(t, ts.URL, "/v1/simulate")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulate: %d, want 405", resp.StatusCode)
	}
}

// TestSimulateTimeline: the timeline block is computed by a streaming
// observer attached to the run — no server-side Segment recording — and
// must agree with the Segment-derived ComputeTimeStats of the same
// deterministic schedule. Requesting it must not perturb any other
// response field, and timeline/non-timeline twins must be distinct cache
// entries.
func TestSimulateTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `{"spec":"poisson:n=60,load=0.9","seed":7,"policy":"RR","machines":2}`
	withTL := `{"spec":"poisson:n=60,load=0.9","seed":7,"policy":"RR","machines":2,"timeline":true}`
	respA, bodyA := post(t, ts.URL, "/v1/simulate", base)
	respB, bodyB := post(t, ts.URL, "/v1/simulate", withTL)
	if respA.StatusCode != 200 || respB.StatusCode != 200 {
		t.Fatalf("status %d / %d: %s %s", respA.StatusCode, respB.StatusCode, bodyA, bodyB)
	}
	if bytes.Contains(bodyA, []byte(`"timeline"`)) {
		t.Fatalf("timeline leaked into a non-timeline response: %s", bodyA)
	}
	var a, b SimulateResponse
	if err := json.Unmarshal(bodyA, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bodyB, &b); err != nil {
		t.Fatal(err)
	}
	if b.Timeline == nil {
		t.Fatalf("no timeline block in %s", bodyB)
	}
	tl := *b.Timeline
	b.Timeline = nil
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("timeline request perturbed the response:\n%+v\n%+v", a, b)
	}

	// Cross-check against the Segment-derived stats of a recorded
	// reference run of the same request.
	in, err := workload.FromSpec("poisson:n=60,load=0.9", 7)
	if err != nil {
		t.Fatal(err)
	}
	p, err := polspec.New("RR")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(in, p, core.Options{Machines: 2, Speed: 1, RecordSegments: true})
	if err != nil {
		t.Fatal(err)
	}
	want := core.ComputeTimeStats(res)
	close := func(got, w float64, what string) {
		t.Helper()
		if d := math.Abs(got - w); d > 1e-6*(1+math.Max(math.Abs(got), math.Abs(w))) {
			t.Errorf("%s: served %v vs segment-derived %v", what, got, w)
		}
	}
	close(tl.Start, want.Start, "start")
	close(tl.End, want.End, "end")
	close(tl.BusyTime, want.BusyTime, "busy_time")
	close(tl.AvgAlive, want.AvgAlive, "avg_alive")
	close(tl.Utilization, want.Utilization, "utilization")
	close(tl.OverloadedTime, want.OverloadedTime, "overloaded_time")
	if tl.MaxAlive != want.MaxAlive {
		t.Errorf("max_alive %d vs %d", tl.MaxAlive, want.MaxAlive)
	}
	if tl.BusyPeriods != want.BusyPeriods {
		t.Errorf("busy_periods %d vs %d", tl.BusyPeriods, want.BusyPeriods)
	}

	// Determinism across the cache: a repeat must be byte-identical.
	_, bodyB2 := post(t, ts.URL, "/v1/simulate", withTL)
	if !bytes.Equal(bodyB, bodyB2) {
		t.Fatal("timeline response not byte-identical on cache hit")
	}
}

// TestMonitorAnomalies: with Config.MonitorAnomalies on, every run carries
// a streaming invariant monitor; healthy traffic (with and without the
// timeline observer sharing the event stream) keeps the /metrics
// "anomalies" counter at zero while responses stay byte-identical to an
// unmonitored server's.
func TestMonitorAnomalies(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	s, ts := newTestServer(t, Config{MonitorAnomalies: true})

	bodies := []string{
		pinnedSimulate,
		`{"spec":"rrstream:groups=8,m=1","policy":"RR","norms":[2]}`,
		`{"spec":"poisson:n=50,load=0.8,dist=exp","seed":7,"policy":"SRPT","machines":2,"speed":1.5,"timeline":true}`,
	}
	for _, b := range bodies {
		respM, bodyM := post(t, ts.URL, "/v1/simulate", b)
		respP, bodyP := post(t, plain.URL, "/v1/simulate", b)
		if respM.StatusCode != 200 || respP.StatusCode != 200 {
			t.Fatalf("status %d/%d for %s: %s", respM.StatusCode, respP.StatusCode, b, bodyM)
		}
		if !bytes.Equal(bodyM, bodyP) {
			t.Errorf("monitored response differs from unmonitored for %s:\n%s\nvs\n%s", b, bodyM, bodyP)
		}
	}
	if got := s.anomalies.Value(); got != 0 {
		t.Errorf("anomalies = %d on healthy traffic", got)
	}
	_, body := get(t, ts.URL, "/metrics")
	var m struct {
		RRServe map[string]any `json:"rrserve"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if v, ok := m.RRServe["anomalies"]; !ok || v.(float64) != 0 {
		t.Errorf("metrics anomalies = %v, want 0", v)
	}
}
