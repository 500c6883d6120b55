package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
	"casoffinder/internal/serve"
)

// The serve workload's fixed load. The resident genome is sized so that a
// single-guide pass of the default CPU engine takes about 4 ms on a 2-CPU
// host: the steady rate sits well below that single-pass capacity, the
// overload rate above it, and both phases fit their 1,000 requests into
// one run.
const (
	serveBases   = 128 << 10
	steadyRate   = 80.0  // requests per second
	overloadRate = 320.0 // requests per second
	// steadyShare of --seconds is the steady phase, the rest overload.
	steadyShare = 0.65
	// latLimit is the latency a request must meet to count as goodput.
	latLimit = 250 * time.Millisecond
	// requestTimeoutMs is every request's deadline.
	requestTimeoutMs = 2000
	// genomicGuides is large enough that the pool's spread of on-target
	// positions, which sets time to first hit, is much the same for every
	// seed.
	genomicGuides = 64
	repeatGuides  = 2
	// repeatCopies of the 300-base consensus cover about a third of the
	// genome; a request with a repeat guide streams one hit per copy.
	repeatCopies = 150
	repeatShare  = 0.10
	// serveSetupReps is higher than setupReps because one set-up takes
	// milliseconds here.
	serveSetupReps = 9
)

var tenants = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

// reqResult is one request as the client saw it.
type reqResult struct {
	due, start, firstHit, end time.Time
	status                    int
	out                       outcome
}

// streamWriter is the in-process client end of a streamed response: it
// keeps the body and notes when the first NDJSON hit line arrived.
type streamWriter struct {
	header   http.Header
	status   int
	body     bytes.Buffer
	firstHit time.Time
}

func (w *streamWriter) Header() http.Header { return w.header }

func (w *streamWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *streamWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.firstHit.IsZero() && w.status == http.StatusOK && bytes.HasPrefix(p, []byte(`{"guide"`)) {
		w.firstHit = time.Now()
	}
	return w.body.Write(p)
}

// Flush makes the writer an http.Flusher, so the server streams each hit
// line as it would to a socket.
func (w *streamWriter) Flush() {}

// openLoop sends every arrival at its due time, regardless of how many
// requests are still in flight, and waits for all of them. Each response
// is checked as soon as it completes, so the client holds no bodies.
func openLoop(h http.Handler, sched []arrival, bodies [][]byte, check func(int, int, []byte) outcome) []reqResult {
	results := make([]reqResult, len(sched))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, a := range sched {
		due := t0.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodPost, "/search", bytes.NewReader(bodies[i]))
			if err != nil {
				results[i] = reqResult{due: due, start: due, end: due, out: outcome{failure: err.Error()}}
				return
			}
			req.Header.Set("X-API-Key", tenants[sched[i].tenant])
			w := &streamWriter{header: http.Header{}}
			start := time.Now()
			h.ServeHTTP(w, req)
			end := time.Now()
			results[i] = reqResult{due: due, start: start, firstHit: w.firstHit, end: end, status: w.status,
				out: check(i, w.status, w.body.Bytes())}
		}(i, due)
	}
	wg.Wait()
	return results
}

// server is one set-up casoffinderd instance.
type server struct {
	handler http.Handler
	metrics *obs.Metrics
}

func newServer(asm *genome.Assembly, tracer *obs.Tracer) (*server, error) {
	metrics := obs.NewMetrics() // always on, as in casoffinderd
	eng := &search.CPU{Workers: runtime.GOMAXPROCS(0), Trace: tracer, Metrics: metrics}
	srv, err := serve.New(serve.Config{
		Engine:  eng,
		Genomes: map[string]*genome.Assembly{"genome": asm},
		Metrics: metrics,
		Trace:   tracer,
	})
	if err != nil {
		return nil, err
	}
	if err := srv.Warmup(context.Background()); err != nil {
		return nil, err
	}
	srv.SetReady(true)
	return &server{handler: srv.Handler(), metrics: metrics}, nil
}

// outcome classifies one response.
type outcome struct {
	ok      bool
	refused string // rejection reason, "" unless refused
	failure string // why the request failed, "" unless it did
	bytes   int
}

func classify(status int, body []byte, want []search.Hit) outcome {
	o := outcome{bytes: len(body)}
	switch status {
	case http.StatusOK:
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		var env struct {
			Error serve.ErrorBody `json:"error"`
		}
		if err := json.Unmarshal(body, &env); err != nil {
			o.failure = fmt.Sprintf("status %d with an unreadable error envelope", status)
			return o
		}
		o.refused = strings.TrimPrefix(env.Error.Code, "rejected:")
		return o
	default:
		o.failure = fmt.Sprintf("status %d: %s", status, strings.TrimSpace(string(body)))
		return o
	}
	ls := lines(body)
	if len(ls) == 0 {
		o.failure = "empty response"
		return o
	}
	var tr serve.Trailer
	if err := json.Unmarshal(ls[len(ls)-1], &tr); err != nil {
		o.failure = fmt.Sprintf("unreadable trailer: %v", err)
		return o
	}
	if !tr.Done || tr.Error != nil {
		o.failure = fmt.Sprintf("trailer %s", ls[len(ls)-1])
		return o
	}
	got := make([]search.Hit, 0, len(ls)-1)
	for _, l := range ls[:len(ls)-1] {
		var h pipeline.Hit
		if err := json.Unmarshal(l, &h); err != nil {
			o.failure = fmt.Sprintf("unreadable hit line: %v", err)
			return o
		}
		got = append(got, h)
	}
	if tr.Hits != int64(len(got)) {
		o.failure = fmt.Sprintf("trailer counts %d hits, stream has %d", tr.Hits, len(got))
		return o
	}
	if err := sameHits(got, want); err != nil {
		o.failure = "hits differ from internal/baseline: " + err.Error()
		return o
	}
	o.ok = true
	return o
}

// phaseResult is one phase's requests with their outcomes.
type phaseResult struct {
	sched   []arrival
	results []reqResult
	seconds float64 // nominal phase length: requests / rate
}

func runPhase(s *server, sched []arrival, bodies [][]byte, expect func(arrival) []search.Hit, rate float64, rep *report) phaseResult {
	check := func(i, status int, body []byte) outcome { return classify(status, body, expect(sched[i])) }
	res := phaseResult{sched: sched, results: openLoop(s.handler, sched, bodies, check), seconds: float64(len(sched)) / rate}
	for i, r := range res.results {
		rep.attempted++
		switch {
		case r.out.failure != "":
			rep.fail("request %d: %s", i, r.out.failure)
		case r.out.refused != "":
			rep.refused++
		}
	}
	return res
}

// latencies returns due-to-trailer and due-to-first-hit times of the
// completed requests that keep pass.
func (p phaseResult) latencies(keep func(arrival) bool) (lat, ttfh []float64) {
	for i, r := range p.results {
		if !r.out.ok || !keep(p.sched[i]) {
			continue
		}
		lat = append(lat, ms(r.end.Sub(r.due)))
		if !r.firstHit.IsZero() {
			ttfh = append(ttfh, ms(r.firstHit.Sub(r.due)))
		}
	}
	return lat, ttfh
}

func anyArrival(arrival) bool { return true }

func runServe(cfg runConfig) (*report, error) {
	rep := &report{}
	asm, err := hg38Like(cfg.seed, serveBases)
	if err != nil {
		return nil, err
	}
	rng := rngFor(cfg.seed, streamRepeats)
	fam, err := newRepeatFamily(rng, 300, repeatGuides)
	if err != nil {
		return nil, err
	}
	copies := fam.overlay(asm, rng, repeatCopies, 0.08)
	genomic, err := sampleGuides(asm, genomicGuides, rngFor(cfg.seed, streamGuides), copies)
	if err != nil {
		return nil, err
	}
	pool := &search.Request{Pattern: pattern}
	for _, g := range genomic {
		pool.Queries = append(pool.Queries, search.Query{Guide: g, MaxMismatches: 4})
	}
	for _, g := range fam.guides {
		pool.Queries = append(pool.Queries, search.Query{Guide: g, MaxMismatches: 5})
	}
	in, err := prepare(cfg.dir, asm, pool)
	if err != nil {
		return nil, err
	}
	byGuide := make([][]search.Hit, len(pool.Queries))
	for _, h := range in.ref {
		byGuide[h.QueryIndex] = append(byGuide[h.QueryIndex], h)
	}
	expect := func(a arrival) []search.Hit {
		var want []search.Hit
		for j, gi := range a.guides {
			for _, h := range byGuide[gi] {
				h.QueryIndex = j
				want = append(want, h)
			}
		}
		pipeline.SortHits(want)
		return want
	}

	// The schedule and request bodies are made before any timing.
	srng := rngFor(cfg.seed, streamSchedule)
	secs := cfg.seconds.Seconds()
	steady := poissonSchedule(srng, phaseRequests(steadyRate, steadyShare*secs), steadyRate, genomicGuides, repeatGuides, repeatShare)
	overload := poissonSchedule(srng, phaseRequests(overloadRate, (1-steadyShare)*secs), overloadRate, genomicGuides, repeatGuides, repeatShare)
	body := func(a arrival, noCoalesce bool) ([]byte, error) {
		sr := serve.SearchRequest{Pattern: pattern, Priority: a.priority, TimeoutMs: requestTimeoutMs, NoCoalesce: noCoalesce}
		for _, gi := range a.guides {
			q := pool.Queries[gi]
			sr.Guides = append(sr.Guides, serve.Guide{Guide: q.Guide, MaxMismatches: q.MaxMismatches})
		}
		return json.Marshal(sr)
	}
	bodiesOf := func(sched []arrival) ([][]byte, error) {
		out := make([][]byte, len(sched))
		for i, a := range sched {
			b, err := body(a, false)
			if err != nil {
				return nil, err
			}
			out[i] = b
		}
		return out, nil
	}
	steadyBodies, err := bodiesOf(steady)
	if err != nil {
		return nil, err
	}
	overloadBodies, err := bodiesOf(overload)
	if err != nil {
		return nil, err
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// Set-up: load the artifact, build and warm the server, and send one
	// single-guide request through it, serveSetupReps times.
	// The warm-up request skips the coalescing window, whose timer would
	// otherwise be most of a set-up this short.
	warm := arrival{guides: []int{0}, priority: "normal"}
	warmBody, err := body(warm, true)
	if err != nil {
		return nil, err
	}
	var (
		loaded   *genome.Artifact
		resident *genome.Assembly
		s        *server
		setupS   []float64
		loadMS   []float64
	)
	for k := 0; k < serveSetupReps; k++ {
		if loaded != nil {
			loaded.Close()
		}
		t0 := time.Now()
		a, err := genome.LoadArtifact(in.path)
		if err != nil {
			return nil, err
		}
		asmK := a.Assembly()
		loadMS = append(loadMS, ms(time.Since(t0)))
		sk, err := newServer(asmK, nil)
		if err != nil {
			return nil, err
		}
		req, err := http.NewRequest(http.MethodPost, "/search", bytes.NewReader(warmBody))
		if err != nil {
			return nil, err
		}
		w := &streamWriter{header: http.Header{}}
		sk.handler.ServeHTTP(w, req)
		setupS = append(setupS, time.Since(t0).Seconds())
		rep.attempted++
		if o := classify(w.status, w.body.Bytes(), expect(warm)); !o.ok {
			rep.fail("warm-up request: %s%s", o.failure, o.refused)
		}
		loaded, resident, s = a, asmK, sk
	}
	defer loaded.Close()

	steal0, total0 := cpuTicks()
	cpu0, t0 := cpuTime(), time.Now()
	sp := runPhase(s, steady, steadyBodies, expect, steadyRate, rep)
	op := runPhase(s, overload, overloadBodies, expect, overloadRate, rep)
	cpu, wall := cpuTime()-cpu0, time.Since(t0)
	steal := stealSince(steal0, total0)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	lat, ttfh := sp.latencies(anyArrival)
	highLat, _ := op.latencies(func(a arrival) bool { return a.priority == "high" })
	good := 0
	for _, r := range op.results {
		if r.out.ok && r.end.Sub(r.due) <= latLimit {
			good++
		}
	}
	goodput := float64(good) / op.seconds
	okCount := 0
	for _, p := range []phaseResult{sp, op} {
		for _, r := range p.results {
			if r.out.ok {
				okCount++
			}
		}
	}
	rep.add("setup_s", "s", median(setupS), len(setupS), "artifact load + serve.New + Warmup + one single-guide request")
	rep.add("lat_ms.p50", "ms", median(lat), len(lat), fmt.Sprintf("steady %.0f req/s, due time to trailer, completed requests", steadyRate))
	rep.add("lat_ms.p99", "ms", quantile(lat, 0.99), len(lat), "steady; "+tailNote(len(lat), 99))
	rep.add("ttfh_ms.p50", "ms", median(ttfh), len(ttfh), "steady, due time to first NDJSON hit line")
	rep.add("ttfh_ms.p99", "ms", quantile(ttfh, 0.99), len(ttfh), "steady; "+tailNote(len(ttfh), 99))
	rep.add("high_lat_ms.p95", "ms", quantile(highLat, 0.95), len(highLat), fmt.Sprintf("overload %.0f req/s, high priority; %s", overloadRate, tailNote(len(highLat), 95)))
	rep.add("goodput_rps", "req/s", goodput, len(op.results), fmt.Sprintf("overload requests completed within %v per second of the phase", latLimit))
	rep.add("goodput_per_s", "1/s", goodput, len(op.results), "= goodput_rps")
	rep.add("rss_peak_mb", "MiB", rss, 0, "VmHWM after set-up and both phases")
	rep.add("host.steal_ratio", "ratio", steal, 0, "host CPU time stolen by other guests during both phases; slows every timing")
	rep.add("search.cpu_util", "ratio", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 0, "process CPU time / (wall × GOMAXPROCS), both phases, client included")
	for _, p := range []struct {
		name string
		ph   phaseResult
	}{{"steady", sp}, {"overload", op}} {
		refused := 0
		for _, r := range p.ph.results {
			if r.out.refused != "" {
				refused++
			}
		}
		rep.add("refused_ratio."+p.name, "ratio", float64(refused)/float64(len(p.ph.results)), len(p.ph.results), "429/503 responses / requests of the phase")
	}
	rep.add("fail_ratio", "ratio", float64(rep.failed+rep.refused)/float64(rep.attempted), rep.attempted, "(errors + refused + mismatches) / attempted, both phases")
	rep.add("ok_ratio", "ratio", float64(okCount)/float64(rep.attempted), rep.attempted, "1 - fail_ratio")
	rep.add("genome.load_ms", "ms", median(loadMS), len(loadMS), "LoadArtifact + Assembly")
	rep.add("genome.chunks", "count", float64(in.chunks), 0, "Chunker.CountChunks")
	serveLayers(rep, s, []phaseResult{sp, op})

	if cfg.trace {
		if err := tracedServe(cfg, rep, resident, steady, steadyBodies, overload, overloadBodies, expect, median(lat)); err != nil {
			return nil, err
		}
		var decode []float64
		for _, b := range append(append([][]byte(nil), steadyBodies...), overloadBodies...) {
			t0 := time.Now()
			_, _, _, apiErr := serve.DecodeRequest(bytes.NewReader(b), serve.Limits{})
			decode = append(decode, ms(time.Since(t0)))
			if apiErr != nil {
				return nil, fmt.Errorf("decoding a generated request: %v", apiErr)
			}
		}
		rep.add("serve.decode_ms", "ms", median(decode), len(decode), "serve.DecodeRequest per body, median")
	}
	return rep, nil
}

// serveLayers reports the admission, coalescing and streaming figures of
// one server's phases, cross-checking the refusals the client saw against
// the server's counters.
func serveLayers(rep *report, s *server, phases []phaseResult) {
	reasons := map[string]int{}
	var sent, completed, admitted, okBytes, okN int
	var lags []float64
	for _, p := range phases {
		for _, r := range p.results {
			sent++
			lags = append(lags, ms(r.start.Sub(r.due)))
			o := r.out
			if o.refused != "" {
				reasons[o.refused]++
				continue
			}
			if r.status == http.StatusOK {
				admitted++
			}
			if o.ok {
				completed++
				okBytes += o.bytes
				okN++
			}
		}
	}
	snap := s.metrics.Snapshot()
	for _, rr := range []struct{ name, reason string }{
		{"serve.reject.bytes", "bytes"}, {"serve.reject.queue", "queue-full"}, {"serve.reject.quota", "quota"},
		{"serve.reject.deadline", "deadline"}, {"serve.shed", "shed"},
	} {
		counter := snap.Counters[obs.L(obs.MetricServeShed, "reason", rr.reason)]
		note := "429 " + rr.reason + " responses; server counter agrees"
		if counter != int64(reasons[rr.reason]) {
			note = fmt.Sprintf("429 %s responses; server counter says %d", rr.reason, counter)
		}
		rep.add(rr.name, "count", float64(reasons[rr.reason]), 0, note)
	}
	rep.add("serve.canceled", "count", float64(snap.Counters[obs.L(obs.MetricServeRequests, "status", "canceled")]), 0, "server requests_total{status=canceled}")
	if b := snap.Counters[obs.MetricServeBatches]; b > 0 {
		rep.add("serve.coalesce_factor", "ratio", float64(admitted)/float64(b), 0, "admitted requests / coalesced passes")
	}
	if okN > 0 {
		rep.add("serve.ndjson_bytes_per_req", "bytes", float64(okBytes)/float64(okN), okN, "mean completed response body")
	}
	lag := quantile(lags, 0.99)
	rep.add("loadgen.lag_ms.p99", "ms", lag, len(lags), fmt.Sprintf("request entry to the handler after its due time; bound %v", lagBound))
	rep.add("loadgen.sent", "count", float64(sent), 0, "")
	rep.add("loadgen.completed", "count", float64(completed), 0, "requests completed with the reference's hits")
	if lag > ms(lagBound) {
		rep.invalid = append(rep.invalid, fmt.Sprintf("loadgen.lag_ms.p99 %.1f ms exceeds the %v bound", lag, lagBound))
	}
}

// tracedServe repeats both phases against a fresh server whose engine and
// request handling are traced, and reports queue and stream times, the
// pipeline stages per pass and the trace's coverage of request wall time.
func tracedServe(cfg runConfig, rep *report, asm *genome.Assembly, steady []arrival, steadyBodies [][]byte,
	overload []arrival, overloadBodies [][]byte, expect func(arrival) []search.Hit, untracedP50 float64) error {
	tracer := obs.NewTracer()
	s, err := newServer(asm, tracer)
	if err != nil {
		return err
	}
	t0 := time.Now()
	sp := runPhase(s, steady, steadyBodies, expect, steadyRate, rep)
	op := runPhase(s, overload, overloadBodies, expect, overloadRate, rep)
	t1 := time.Now()
	lat, _ := sp.latencies(anyArrival)

	rec := newRecorder(t0)
	var wall, lagSum time.Duration
	for pi, p := range []phaseResult{sp, op} {
		for i, r := range p.results {
			unit := fmt.Sprintf("req-%d-%d", pi, i)
			root := rec.add(unit, "bench", "request", 0, r.due, r.end)
			rec.add(unit, "bench", "loadgen.lag", root.ID, r.due, r.start)
			rec.add(unit, "bench", "serve.handler", root.ID, r.start, r.end)
			wall += r.end.Sub(r.due)
			lagSum += r.start.Sub(r.due)
		}
	}
	// Server and engine spans carry the server's own request numbers, not
	// the benchmark's, so they are folded into one unit for the phases and
	// accounted in aggregate.
	srvRoot := rec.add("server", "bench", "phases", 0, t0, t1)
	rec.fold(srvRoot, tracer.Spans())
	spans := rec.all()
	self := selfTimes(spans)
	var queue, stream []float64
	var admitSum, streamSum time.Duration
	stage := map[string]time.Duration{}
	passes := 0
	var cands int64
	for _, x := range spans {
		if x.Unit != "server" || x.ID == srvRoot.ID {
			continue
		}
		switch x.Name {
		case "admit":
			queue = append(queue, ms(x.dur()))
			admitSum += x.dur()
		case "stream":
			stream = append(stream, ms(x.dur()))
			streamSum += x.dur()
		case "validate":
			passes++
		case "compile", "stage", "find", "compare", "drain", "emit":
			stage[x.Name] += self[x.ID]
			cands += x.attr("candidates")
		}
	}
	rep.add("serve.queue_ms.p50", "ms", median(queue), len(queue), "admit spans (admission wait)")
	rep.add("serve.queue_ms.p99", "ms", quantile(queue, 0.99), len(queue), tailNote(len(queue), 99))
	rep.add("serve.stream_ms.p50", "ms", median(stream), len(stream), "stream spans (coalescing window + pass + NDJSON)")
	rep.add("serve.stream_ms.p99", "ms", quantile(stream, 0.99), len(stream), tailNote(len(stream), 99))
	if passes > 0 {
		for _, name := range []string{"compile", "stage", "find", "compare", "drain", "emit"} {
			rep.add("pipeline."+name+"_ms", "ms", ms(stage[name])/float64(passes), passes, "self time per engine pass, mean over the traced phases")
		}
		hits := s.metrics.Counter(obs.MetricHits)
		rep.add("pipeline.candidates", "count", float64(cands)/float64(passes), passes, "PAM candidates per engine pass (find spans), mean")
		rep.add("pipeline.hits", "count", float64(hits)/float64(passes), passes, "hits per engine pass, mean")
		if cands > 0 {
			rep.add("pipeline.hit_yield", "ratio", float64(hits)/float64(cands), 0, "hits / candidates")
		}
	}
	cov := float64(lagSum+admitSum+streamSum) / float64(wall)
	rep.add("trace.coverage", "ratio", cov, len(sp.results)+len(op.results),
		fmt.Sprintf("(generator lag + admit + stream spans) / request wall, summed over requests; tolerance ≥ %.2f", coverageMin))
	rep.add("trace.overhead", "ratio", median(lat)/untracedP50, len(lat), "traced / untraced steady lat_ms.p50")
	if cov < coverageMin {
		rep.invalid = append(rep.invalid, fmt.Sprintf("trace.coverage %.3f below %.2f", cov, coverageMin))
	}
	return rec.write(cfg.spans)
}
