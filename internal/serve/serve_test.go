package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// stubEngine is a controllable engine for admission and lifecycle tests: it
// can block until released, signal stream starts, emit canned hits or panic.
type stubEngine struct {
	block    chan struct{} // non-nil: Stream waits for close or ctx
	started  chan struct{} // non-nil: receives one token per Stream call
	hits     []pipeline.Hit
	panicMsg string
}

func (e *stubEngine) Name() string { return "stub" }

func (e *stubEngine) Run(asm *genome.Assembly, req *search.Request) ([]search.Hit, error) {
	return search.Collect(context.Background(), e, asm, req)
}

func (e *stubEngine) Stream(ctx context.Context, asm *genome.Assembly, req *search.Request, emit func(search.Hit) error) error {
	if e.panicMsg != "" {
		panic(e.panicMsg)
	}
	if e.started != nil {
		select {
		case e.started <- struct{}{}:
		default:
		}
	}
	if e.block != nil {
		select {
		case <-e.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, h := range e.hits {
		if err := emit(h); err != nil {
			return err
		}
	}
	return nil
}

// newTestServer builds a ready server over the planted test assembly and an
// httptest front end.
func newTestServer(t *testing.T, mut func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Engine:  &search.CPU{},
		Genomes: map[string]*genome.Assembly{"test": testAssembly()},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postSearch sends one search request and returns the response.
func postSearch(t *testing.T, ts *httptest.Server, body string, header map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/search", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// readStream splits an NDJSON response into hit lines and the trailer.
func readStream(t *testing.T, resp *http.Response) ([]string, Trailer) {
	t.Helper()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var tr Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("last line is not a trailer: %v\nbody: %s", err, data)
	}
	return lines[:len(lines)-1], tr
}

// errorCode decodes the error envelope of a non-streaming failure.
func errorCode(t *testing.T, resp *http.Response) string {
	t.Helper()
	var env struct {
		Error ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("response is not an error envelope: %v", err)
	}
	return env.Error.Code
}

const searchBody = `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`

func TestSearchStreamsNDJSON(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp := postSearch(t, ts, searchBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	hits, tr := readStream(t, resp)
	if !tr.Done || tr.Degraded {
		t.Errorf("trailer = %+v, want done and not degraded", tr)
	}
	if tr.Hits != int64(len(hits)) || len(hits) == 0 {
		t.Fatalf("trailer counts %d hits, body has %d", tr.Hits, len(hits))
	}
	var hit struct {
		Guide string `json:"guide"`
		Seq   string `json:"seq"`
		Pos   int    `json:"pos"`
		Dir   string `json:"dir"`
	}
	if err := json.Unmarshal([]byte(hits[0]), &hit); err != nil {
		t.Fatal(err)
	}
	if hit.Guide != "GATTACAGTANNN" || hit.Seq != "chr1" || hit.Pos != 4 || hit.Dir != "+" {
		t.Errorf("hit = %+v, want the planted chr1:4 site", hit)
	}
}

func TestSearchRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Limits.MaxGuides = 2; c.Limits.MaxBodyBytes = 512 })
	tests := []struct {
		name, body string
		status     int
		code       string
	}{
		{"malformed json", `{"pattern":`, 400, "bad-json"},
		{"unknown field", `{"pattern":"NNNNNNNNNNNGG","guides":[],"fast":true}`, 400, "bad-json"},
		{"trailing data", searchBody + `{"again":1}`, 400, "bad-json"},
		{"no guides", `{"pattern":"NNNNNNNNNNNGG","guides":[]}`, 400, "bad-request"},
		{"bad pam code", `{"pattern":"NNNNNNNNNNNG!","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`, 400, "bad-request"},
		{"guide length mismatch", `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GAT","max_mismatches":1}]}`, 400, "bad-request"},
		{"negative mismatches", `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":-1}]}`, 400, "bad-request"},
		{"bad priority", `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"priority":"urgent"}`, 400, "bad-priority"},
		{"negative timeout", `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"timeout_ms":-5}`, 400, "bad-timeout"},
		{"too many guides", `{"pattern":"NNNNNNNNNNNGG","guides":[` +
			strings.Repeat(`{"guide":"GATTACAGTANNN","max_mismatches":1},`, 2) +
			`{"guide":"GATTACAGTANNN","max_mismatches":1}]}`, 400, "too-many-guides"},
		{"oversized body", `{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}],"priority":"` +
			strings.Repeat("x", 600) + `"}`, 413, "too-large"},
		{"unknown genome", `{"genome":"hg38",` + searchBody[1:], 404, "unknown-genome"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp := postSearch(t, ts, tt.body, nil)
			if resp.StatusCode != tt.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tt.status)
			}
			if code := errorCode(t, resp); code != tt.code {
				t.Errorf("code = %q, want %q", code, tt.code)
			}
		})
	}
}

func TestSearchMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := ts.Client().Get(ts.URL + "/search")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /search = %d, want 405", resp.StatusCode)
	}
}

func TestGenomeRequiredWithSeveralResident(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Genomes["other"] = testAssembly()
	})
	resp := postSearch(t, ts, searchBody, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "genome-required" {
		t.Errorf("code = %q, want genome-required", code)
	}
	resp = postSearch(t, ts, `{"genome":"other",`+searchBody[1:], nil)
	if _, tr := readStream(t, resp); !tr.Done {
		t.Errorf("named-genome request failed: %+v", tr)
	}
}

func TestQuotaRejectsWithRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) {
		c.Limits.QuotaRate = 0.5
		c.Limits.QuotaBurst = 1
	})
	hdr := map[string]string{"X-API-Key": "alice"}
	if resp := postSearch(t, ts, searchBody, hdr); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst request: %d", resp.StatusCode)
	}
	resp := postSearch(t, ts, searchBody, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	if code := errorCode(t, resp); code != "rejected:quota" {
		t.Errorf("code = %q, want rejected:quota", code)
	}
	// A different tenant is unaffected.
	if resp := postSearch(t, ts, searchBody, map[string]string{"X-API-Key": "bob"}); resp.StatusCode != http.StatusOK {
		t.Errorf("other tenant rejected: %d", resp.StatusCode)
	}
}

// TestRetryAfterIsCeiling pins the header arithmetic: the advertised
// Retry-After is the ceiling of the rejection's hint in whole seconds. The
// old rendering truncated and added one, so the default 1s hint went out as
// "2" — every shed client backed off twice as long as the daemon asked.
func TestRetryAfterIsCeiling(t *testing.T) {
	for _, tt := range []struct {
		d    time.Duration
		want int
	}{
		{time.Second, 1}, // the default hint: the regression case
		{time.Millisecond, 1},
		{0, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
		{2*time.Second + time.Nanosecond, 3},
	} {
		if got := retryAfterSeconds(tt.d); got != tt.want {
			t.Errorf("retryAfterSeconds(%v) = %d, want %d", tt.d, got, tt.want)
		}
	}
}

// TestRejectionAdvertisesExactRetryAfter drives the regression end to end:
// a shed request under the default 1s hint must see Retry-After: 1 on the
// wire, not 2.
func TestRejectionAdvertisesExactRetryAfter(t *testing.T) {
	eng := &stubEngine{block: make(chan struct{}), started: make(chan struct{}, 8)}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.Limits.MaxInflight = 1
		c.Limits.MaxQueue = 1
		c.Limits.RetryAfter = time.Second
	})

	done := make(chan struct{}, 2)
	for i := 0; i < 2; i++ { // fill the running slot and the queue
		go func() {
			resp := postSearch(t, ts, searchBody, nil)
			io.Copy(io.Discard, resp.Body)
			done <- struct{}{}
		}()
	}
	<-eng.started // the first request holds the engine
	waitQueued(t, s.adm, 1)

	resp := postSearch(t, ts, searchBody, nil) // over capacity: shed
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want %q (a 1s hint must not round up to 2)", got, "1")
	}
	io.Copy(io.Discard, resp.Body)
	close(eng.block)
	<-done
	<-done
}

// TestBurstSheds is the overload acceptance check: 3x over capacity, the
// excess sheds with 429 + Retry-After while everything admitted completes;
// the queue never grows past its bound.
func TestBurstSheds(t *testing.T) {
	eng := &stubEngine{
		block: make(chan struct{}),
		hits:  []pipeline.Hit{{QueryIndex: 0, SeqName: "chr1", Pos: 4, Dir: '+', Site: "GATTACAGTACGG"}},
	}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.Metrics = obs.NewMetrics()
		c.Limits.MaxInflight = 1
		c.Limits.MaxQueue = 2
	})
	const capacity = 3 // 1 running + 2 queued
	const burst = 3 * capacity

	// NoCoalesce keeps each request on its own pass so the burst really
	// contends for slots.
	body := `{"no_coalesce":true,` + searchBody[1:]
	type outcome struct {
		status int
		retry  string
		tr     Trailer
	}
	results := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", strings.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Errorf("request: %v", err)
				return
			}
			defer resp.Body.Close()
			o := outcome{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
			if resp.StatusCode == http.StatusOK {
				_, o.tr = readStream(t, resp)
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			results <- o
		}()
	}
	// Give the burst time to contend, then let the admitted requests run.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := s.cfg.Metrics.Counter(obs.L(obs.MetricServeShed, "reason", "queue-full")); v >= burst-capacity {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("burst never shed")
		}
		time.Sleep(time.Millisecond)
	}
	close(eng.block)
	wg.Wait()
	close(results)

	ok, shed := 0, 0
	for o := range results {
		switch o.status {
		case http.StatusOK:
			ok++
			if !o.tr.Done {
				t.Errorf("admitted request did not complete: %+v", o.tr)
			}
		case http.StatusTooManyRequests:
			shed++
			if o.retry == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d", o.status)
		}
	}
	if ok != capacity || shed != burst-capacity {
		t.Errorf("burst: %d ok, %d shed; want %d ok, %d shed", ok, shed, capacity, burst-capacity)
	}
	if depth := s.cfg.Metrics.GaugeValue(obs.MetricServeQueueDepth); depth != 0 {
		t.Errorf("queue depth %v after drain, want 0", depth)
	}
}

// TestDegradedDeviceLossCompletes is the resilience acceptance check: a
// seeded device loss mid-request fails over to the CPU; the response
// completes with every hit and a degraded trailer — never a dropped
// connection or a 5xx.
func TestDegradedDeviceLossCompletes(t *testing.T) {
	dev := gpu.New(device.MI100())
	dev.SetFaults(fault.NewInjector(fault.Plan{Seed: 42, Rate: 1, Site: fault.SiteCLDeviceLost}))
	res := &pipeline.Resilience{Seed: 42}
	eng := &search.SimCL{Device: dev, Resilience: res}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.SerializePasses = true
		c.Metrics = obs.NewMetrics()
	})
	res.OnReport = s.ReportSink()

	resp := postSearch(t, ts, searchBody, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (degradation must not fail the request)", resp.StatusCode)
	}
	hits, tr := readStream(t, resp)
	if len(hits) == 0 || !strings.Contains(hits[0], `"pos":4`) {
		t.Errorf("failover lost the planted hit: %v", hits)
	}
	if !tr.Done || !tr.Degraded || tr.Failovers == 0 {
		t.Errorf("trailer = %+v, want done, degraded, failovers > 0", tr)
	}
	if got := s.cfg.Metrics.Counter(obs.L(obs.MetricServeRequests, "status", "degraded")); got != 1 {
		t.Errorf("degraded request count = %d, want 1", got)
	}
}

// TestCoalescedRequestsOverHTTP drives coalescing through the full HTTP
// path: concurrent identical-key requests share a pass and each response is
// byte-identical to its uncoalesced twin.
func TestCoalescedRequestsOverHTTP(t *testing.T) {
	m := obs.NewMetrics()
	_, ts := newTestServer(t, func(c *Config) {
		c.Metrics = m
		c.CoalesceWindow = 100 * time.Millisecond
	})
	bodies := []string{
		`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":1}]}`,
		`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"ACGTACGTACNNN","max_mismatches":1}]}`,
	}
	solo := make([]string, len(bodies))
	for i, body := range bodies {
		resp := postSearch(t, ts, `{"no_coalesce":true,`+body[1:], nil)
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = string(data)
	}
	if m.Counter(obs.MetricServeCoalesced) != 0 {
		t.Fatal("no_coalesce requests still coalesced")
	}

	got := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postSearch(t, ts, body, nil)
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got[i] = string(data)
		}()
	}
	wg.Wait()
	for i := range bodies {
		if got[i] != solo[i] {
			t.Errorf("request %d: coalesced response differs from uncoalesced:\n%q\nvs\n%q", i, got[i], solo[i])
		}
	}
	if m.Counter(obs.MetricServeCoalesced) != int64(len(bodies)) {
		t.Errorf("coalesced counter = %d, want %d (requests did not share a pass)",
			m.Counter(obs.MetricServeCoalesced), len(bodies))
	}
}

// TestPanicIsolation: a panicking pass costs that request a 500 and nothing
// else — the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	eng := &stubEngine{panicMsg: "kernel walked off the genome"}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.Metrics = obs.NewMetrics()
	})
	resp := postSearch(t, ts, `{"no_coalesce":true,`+searchBody[1:], nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "panic" {
		t.Errorf("code = %q, want panic", code)
	}
	if got := s.cfg.Metrics.Counter(obs.MetricServePanics); got != 1 {
		t.Errorf("panic counter = %d, want 1", got)
	}
	// The server survives: health stays green and a healthy engine serves.
	if resp, err := ts.Client().Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v / %v", resp, err)
	}
	eng.panicMsg = ""
	if resp := postSearch(t, ts, `{"no_coalesce":true,`+searchBody[1:], nil); resp.StatusCode != http.StatusOK {
		t.Errorf("request after panic = %d, want 200", resp.StatusCode)
	}
}

// TestPanicIsolationCoalesced: the merged pass runs in the coalescer's own
// goroutine, outside any handler's recover — a panic there must still turn
// into a typed 500 for every batch member (not a daemon crash or a hung
// batch), and the daemon keeps serving afterwards.
func TestPanicIsolationCoalesced(t *testing.T) {
	eng := &stubEngine{panicMsg: "kernel walked off the genome"}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.Metrics = obs.NewMetrics()
		c.CoalesceWindow = 50 * time.Millisecond
	})

	const members = 2
	statuses := make([]int, members)
	codes := make([]string, members)
	var wg sync.WaitGroup
	for i := 0; i < members; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/search", strings.NewReader(searchBody))
			resp, err := ts.Client().Do(req)
			if err != nil {
				t.Errorf("member %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			var env struct {
				Error ErrorBody `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Errorf("member %d: response is not an error envelope: %v", i, err)
				return
			}
			codes[i] = env.Error.Code
		}()
	}
	wg.Wait()
	for i := 0; i < members; i++ {
		if statuses[i] != http.StatusInternalServerError || codes[i] != "panic" {
			t.Errorf("member %d: status %d code %q, want 500 panic", i, statuses[i], codes[i])
		}
	}
	if got := s.cfg.Metrics.Counter(obs.MetricServePanics); got == 0 {
		t.Error("panic counter = 0, want > 0")
	}
	// The daemon survives: a healthy engine serves the next coalesced pass.
	eng.panicMsg = ""
	if resp := postSearch(t, ts, searchBody, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("request after coalesced panic = %d, want 200", resp.StatusCode)
	}
}

// TestAdmitCancellationCountsCanceled: a client that gives up while queued is
// a cancellation, not a rejection — the shed/reject metrics must not inflate.
func TestAdmitCancellationCountsCanceled(t *testing.T) {
	eng := &stubEngine{block: make(chan struct{}), started: make(chan struct{}, 1)}
	s, ts := newTestServer(t, func(c *Config) {
		c.Engine = eng
		c.Metrics = obs.NewMetrics()
		c.Limits.MaxInflight = 1
	})
	body := `{"no_coalesce":true,` + searchBody[1:]

	// Occupy the only slot.
	first := make(chan struct{})
	go func() {
		defer close(first)
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json", strings.NewReader(body))
		if err != nil {
			t.Errorf("slot holder: %v", err)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()
	<-eng.started

	// Queue a second request and cancel its client while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/search", strings.NewReader(body))
		if _, err := ts.Client().Do(req); err == nil {
			t.Error("cancelled request returned without error")
		}
	}()
	waitQueued(t, s.adm, 1)
	cancel()
	<-queued

	deadline := time.Now().Add(5 * time.Second)
	for s.cfg.Metrics.Counter(obs.L(obs.MetricServeRequests, "status", statusCanceled)) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("canceled request never counted as canceled")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.cfg.Metrics.Counter(obs.L(obs.MetricServeRequests, "status", statusRejected)); got != 0 {
		t.Errorf("rejected count = %d, want 0 (cancellation is not a rejection)", got)
	}

	close(eng.block)
	<-first
}

func TestReadyzGatesTraffic(t *testing.T) {
	s, ts := newTestServer(t, nil)
	s.SetReady(false)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while not ready = %d, want 503", resp.StatusCode)
	}
	if resp := postSearch(t, ts, searchBody, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("search while not ready = %d, want 503", resp.StatusCode)
	}
	s.SetReady(true)
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("readyz while ready = %d, want 200", resp.StatusCode)
	}
}

// TestGracefulDrain: drain lets the in-flight stream finish and flush its
// trailer while new arrivals bounce with 503s.
func TestGracefulDrain(t *testing.T) {
	eng := &stubEngine{
		block:   make(chan struct{}),
		started: make(chan struct{}, 1),
		hits:    []pipeline.Hit{{QueryIndex: 0, SeqName: "chr1", Pos: 4, Dir: '+', Site: "GATTACAGTACGG"}},
	}
	s, ts := newTestServer(t, func(c *Config) { c.Engine = eng })

	type result struct {
		status int
		tr     Trailer
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/search", "application/json",
			strings.NewReader(`{"no_coalesce":true,`+searchBody[1:]))
		if err != nil {
			t.Errorf("in-flight request: %v", err)
			inflight <- result{}
			return
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		var tr Trailer
		lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
		json.Unmarshal([]byte(lines[len(lines)-1]), &tr)
		inflight <- result{status: resp.StatusCode, tr: tr}
	}()
	<-eng.started // the stream is running and blocked

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// Drain must refuse new work immediately...
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := postSearch(t, ts, searchBody, nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("draining server still admits searches")
		}
		time.Sleep(time.Millisecond)
	}
	// ...while the in-flight stream completes untouched.
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) before the in-flight stream finished", err)
	default:
	}
	close(eng.block)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-inflight
	if r.status != http.StatusOK || !r.tr.Done || r.tr.Hits != 1 {
		t.Errorf("in-flight request during drain: status %d, trailer %+v; want a completed stream", r.status, r.tr)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, func(c *Config) { c.Metrics = obs.NewMetrics() })
	// Read the stream to its end first: headers arrive with the first hit,
	// and the request's terminal status is counted only once the pass ends.
	readStream(t, postSearch(t, ts, searchBody, nil))
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		`casoffinderd_requests_total{status="ok"} 1`,
		"casoffinderd_batches_total",
		"# TYPE casoffinderd_requests_total counter",
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("/metrics missing %q:\n%s", want, data)
		}
	}
}

// TestRequestTimeoutTrailer: a per-request deadline expiring mid-stream
// still terminates the stream with a trailer naming the deadline.
func TestRequestTimeoutTrailer(t *testing.T) {
	eng := &stubEngine{block: make(chan struct{})} // blocks until ctx expires
	_, ts := newTestServer(t, func(c *Config) { c.Engine = eng })
	resp := postSearch(t, ts, `{"timeout_ms":50,"no_coalesce":true,`+searchBody[1:], nil)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (deadline before any hit streamed)", resp.StatusCode)
	}
	if code := errorCode(t, resp); code != "deadline" {
		t.Errorf("code = %q, want deadline", code)
	}
}

// TestNewConfigValidation covers the constructor's refusals.
func TestNewConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted a config without an engine")
	}
	if _, err := New(Config{Engine: &search.CPU{}}); err == nil {
		t.Error("New accepted a config without genomes")
	}
	if _, err := New(Config{
		Engine:        &search.CPU{},
		Genomes:       map[string]*genome.Assembly{"a": testAssembly()},
		DefaultGenome: "missing",
	}); err == nil {
		t.Error("New accepted a default genome that is not resident")
	}
}

// TestWarmupSetsNothingButRuns: warmup must run a pass end to end on the
// real engine without touching the resident genomes.
func TestWarmupRuns(t *testing.T) {
	s, _ := newTestServer(t, nil)
	if err := s.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
}

func ExampleServer() {
	asm := testAssembly()
	s, _ := New(Config{
		Engine:  &search.CPU{},
		Genomes: map[string]*genome.Assembly{"toy": asm},
	})
	s.SetReady(true)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/search", "application/json",
		strings.NewReader(`{"pattern":"NNNNNNNNNNNGG","guides":[{"guide":"GATTACAGTANNN","max_mismatches":0}]}`))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	fmt.Println(resp.Status)
	// Output: 200 OK
}
