package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"casoffinder/internal/bench"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
	"casoffinder/internal/timing"
	"casoffinder/internal/tune"
)

// setupReps is how many times a run sets up anew; setup_s is the
// median. Process-wide memoized work (the tuner's decision cache, compiled
// ISA) is paid by the first repetition only.
const setupReps = 3

// frontend is one engine a closed-loop workload drives.
type frontend struct {
	name   string
	eng    search.Engine
	prof   func() *search.Profile // nil for the CPU engine
	setObs func(*obs.Tracer, *obs.Metrics)
}

// cpuFrontends is the CLI's default engine: search.CPU with one scan worker
// per GOMAXPROCS.
func cpuFrontends() []frontend {
	e := &search.CPU{Workers: runtime.GOMAXPROCS(0)}
	return []frontend{{name: "cpu", eng: e, setObs: func(t *obs.Tracer, m *obs.Metrics) { e.Trace, e.Metrics = t, m }}}
}

// deviceFrontends are the paper's two host programs on a simulated MI100
// with the autotuner choosing the kernel (the CLI's -variant auto).
func deviceFrontends() []frontend {
	cl := &search.SimCL{Device: gpu.New(device.MI100()), Auto: true}
	sy := &search.SimSYCL{Device: gpu.New(device.MI100()), Auto: true}
	return []frontend{
		{name: "opencl", eng: cl, prof: cl.LastProfile, setObs: func(t *obs.Tracer, m *obs.Metrics) { cl.Trace, cl.Metrics = t, m }},
		{name: "sycl", eng: sy, prof: sy.LastProfile, setObs: func(t *obs.Tracer, m *obs.Metrics) { sy.Trace, sy.Metrics = t, m }},
	}
}

// closedSpec describes a closed-loop workload: one pass at a time, the
// next starting when the previous returns, alternating frontends.
type closedSpec struct {
	inputs    func(seed int64) (*genome.Assembly, *search.Request, error)
	frontends func() []frontend
	// json encodes every hit with search.WriteHitJSON into a buffered
	// discard writer, as the CLI's -format json does.
	json bool
	// device marks the simulator workload, whose layers include the gpu,
	// kernels, alloc, tune and timing figures.
	device bool
}

func runScanSparse(cfg runConfig) (*report, error) {
	return runClosed(cfg, closedSpec{inputs: sparseInputs, frontends: cpuFrontends})
}

func runScanDense(cfg runConfig) (*report, error) {
	return runClosed(cfg, closedSpec{inputs: denseInputs, frontends: cpuFrontends, json: true})
}

func runDevice(cfg runConfig) (*report, error) {
	return runClosed(cfg, closedSpec{inputs: deviceInputs, frontends: deviceFrontends, device: true})
}

// scanBases is the assembly size of both scan workloads.
const scanBases = 16 << 20

// sparseInputs: 4 genomic protospacers, up to 5 mismatches.
func sparseInputs(seed int64) (*genome.Assembly, *search.Request, error) {
	asm, err := hg38Like(seed, scanBases)
	if err != nil {
		return nil, nil, err
	}
	guides, err := sampleGuides(asm, 4, rngFor(seed, streamGuides), nil)
	if err != nil {
		return nil, nil, err
	}
	req := &search.Request{Pattern: pattern}
	for _, g := range guides {
		req.Queries = append(req.Queries, search.Query{Guide: g, MaxMismatches: 5})
	}
	return asm, req, nil
}

// denseInputs: an Alu-like family of 8,000 copies of a 300-base consensus
// at 8% divergence over the assembly, and 12 guides tiling the consensus
// with up to 6 mismatches.
func denseInputs(seed int64) (*genome.Assembly, *search.Request, error) {
	asm, err := hg38Like(seed, scanBases)
	if err != nil {
		return nil, nil, err
	}
	rng := rngFor(seed, streamRepeats)
	fam, err := newRepeatFamily(rng, 300, 12)
	if err != nil {
		return nil, nil, err
	}
	fam.overlay(asm, rng, 8000, 0.08)
	req := &search.Request{Pattern: pattern}
	for _, g := range fam.guides {
		req.Queries = append(req.Queries, search.Query{Guide: g, MaxMismatches: 6})
	}
	return asm, req, nil
}

// deviceInputs: bench.ExampleQueries over a 4 Mbp assembly. Random
// sequence holds no site of the two example guides, so each is planted
// exactly once in the first sequence (time to first hit is then the first
// chunk's latency) and in three sequences drawn by the seed.
func deviceInputs(seed int64) (*genome.Assembly, *search.Request, error) {
	asm, err := hg38Like(seed, 4<<20)
	if err != nil {
		return nil, nil, err
	}
	rng := rngFor(seed, streamPlant)
	req := &search.Request{Pattern: bench.ExamplePattern, Queries: bench.ExampleQueries()}
	for _, q := range req.Queries {
		plant(asm, 0, q.Guide, rng)
		for i := 0; i < 3; i++ {
			plant(asm, 1+rng.Intn(len(asm.Sequences)-1), q.Guide, rng)
		}
	}
	return asm, req, nil
}

// passResult is one Stream call as the benchmark saw it.
type passResult struct {
	wall, ttfh time.Duration
	gotHit     bool
	digest     string
	hits       []search.Hit // kept only when collecting
	emit       time.Duration
	err        error
}

// runPass streams one pass through fe. Every hit is digested; collect keeps
// them for the reference check; encode renders each as NDJSON; timeEmit
// sums the time spent in the emit callback.
func runPass(fe frontend, asm *genome.Assembly, req *search.Request, collect, encode, timeEmit bool) passResult {
	var r passResult
	d := newDigest()
	var bw *bufio.Writer
	if encode {
		bw = bufio.NewWriterSize(io.Discard, 64<<10)
	}
	var first time.Time
	t0 := time.Now()
	r.err = fe.eng.Stream(context.Background(), asm, req, func(h search.Hit) error {
		e0 := time.Now()
		if first.IsZero() {
			first = e0
		}
		d.add(h)
		if collect {
			r.hits = append(r.hits, h)
		}
		if bw != nil {
			if err := search.WriteHitJSON(bw, req, h); err != nil {
				return err
			}
		}
		if timeEmit {
			r.emit += time.Since(e0)
		}
		return nil
	})
	if bw != nil && r.err == nil {
		r.err = bw.Flush()
	}
	r.wall = time.Since(t0)
	if !first.IsZero() {
		r.gotHit, r.ttfh = true, first.Sub(t0)
	}
	r.digest = d.sum()
	return r
}

// devPass is what one simulator pass's Profile says.
type devPass struct {
	frontend                                string
	launches                                int64
	finder, comparer                        gpu.Stats
	wg                                      int
	staged, read, cand, entries             int64
	arenaBytes, pageClaims, overflowRetries int64
	statsKey                                string
}

func devPassOf(name string, p *search.Profile) devPass {
	d := devPass{frontend: name, staged: p.BytesStaged, read: p.BytesRead, cand: p.CandidateSites,
		entries: p.Entries, arenaBytes: p.ArenaBytes, pageClaims: p.ArenaPageClaims, overflowRetries: p.OverflowRetries}
	var key strings.Builder
	for _, k := range p.KernelNames() {
		st := p.Kernels[k]
		fmt.Fprintf(&key, "%s=%+v;", k, st)
		d.launches += int64(p.Launches[k])
		if k == "finder" {
			d.finder.Add(&st)
		} else {
			d.comparer.Add(&st)
			d.wg = p.WorkGroupSizes[k]
		}
	}
	d.statsKey = key.String()
	return d
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func runClosed(cfg runConfig, spec closedSpec) (*report, error) {
	rep := &report{}
	asm, req, err := spec.inputs(cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	in, err := prepare(cfg.dir, asm, req)
	if err != nil {
		return nil, err
	}

	var selectMS float64
	var decision *tune.Decision
	if cfg.trace && spec.device {
		// Timed before any engine runs, while the tuner's cache is cold.
		t0 := time.Now()
		decision, err = tune.Select(tune.Config{Spec: device.MI100(), PatternLen: len(req.Pattern), Queries: len(req.Queries), ChunkBytes: req.ChunkBytes})
		selectMS = ms(time.Since(t0))
		if err != nil {
			return nil, fmt.Errorf("tune: %w", err)
		}
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// Set-up, setupReps times: load the artifact, build the engines and
	// run one warm-up pass through each. The first warm-up passes are the
	// run's first passes and are checked against the reference.
	var (
		loaded   *genome.Artifact
		resident *genome.Assembly
		fes      []frontend
		setupS   []float64
		loadMS   []float64
		first    = map[string]string{}
	)
	for k := 0; k < setupReps; k++ {
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
		fesK := spec.frontends()
		warm := make([]passResult, len(fesK))
		for i, fe := range fesK {
			warm[i] = runPass(fe, asmK, req, k == 0, spec.json, false)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		for i, res := range warm {
			rep.attempted++
			name := fesK[i].name
			switch {
			case res.err != nil:
				rep.fail("%s warm-up pass: %v", name, res.err)
			case k == 0:
				if err := sameHits(res.hits, in.ref); err != nil {
					rep.fail("%s first pass against internal/baseline: %v", name, err)
				}
				first[name] = res.digest
			case res.digest != first[name]:
				rep.fail("%s warm-up pass %d: stream digest %s, first pass %s", name, k, res.digest, first[name])
			}
		}
		loaded, resident, fes = a, asmK, fesK
	}
	defer loaded.Close()
	if d0, d1 := first["opencl"], first["sycl"]; d0 != d1 {
		rep.fail("opencl and sycl streams differ: %s vs %s", d0, d1)
	}

	// Untraced passes.
	type sample struct {
		fe   int
		pass passResult
	}
	var samples []sample
	var devs []devPass
	check := func(fe frontend, res passResult) {
		rep.attempted++
		if res.err != nil {
			rep.fail("%s pass: %v", fe.name, res.err)
		} else if res.digest != first[fe.name] {
			rep.fail("%s pass: stream digest %s, first pass %s", fe.name, res.digest, first[fe.name])
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	steal0, total0 := cpuTicks()
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		fe := fes[i%len(fes)]
		res := runPass(fe, resident, req, false, spec.json, false)
		check(fe, res)
		samples = append(samples, sample{i % len(fes), res})
		if fe.prof != nil {
			if p := fe.prof(); p != nil {
				devs = append(devs, devPassOf(fe.name, p))
			}
		}
	}
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	steal := stealSince(steal0, total0)
	runtime.ReadMemStats(&ms1)
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}

	passMS := func(fe int) (walls, ttfhs []float64) {
		for _, s := range samples {
			if fe >= 0 && s.fe != fe {
				continue
			}
			walls = append(walls, ms(s.pass.wall))
			if s.pass.gotHit {
				ttfhs = append(ttfhs, ms(s.pass.ttfh))
			}
		}
		return walls, ttfhs
	}
	walls, ttfhs := passMS(-1)
	n := len(walls)
	// Frontends differ in speed, so a median over their mixed passes would
	// fall between two clusters; the device figures average each
	// frontend's own median instead.
	var latMeds, ttfhMeds []float64
	for i := range fes {
		w, t := passMS(i)
		latMeds = append(latMeds, median(w))
		ttfhMeds = append(ttfhMeds, median(t))
	}
	var busy time.Duration
	for _, s := range samples {
		busy += s.pass.wall
	}
	rep.add("setup_s", "s", median(setupS), len(setupS), "artifact load + engine construction + one warm-up pass per frontend")
	rep.add("lat_ms.p50", "ms", mean(latMeds), n, "median pass wall time (device: mean of the frontends' medians)")
	rep.add("ttfh_ms.p50", "ms", mean(ttfhMeds), len(ttfhs), "median time from the Stream call to the first hit (device: mean of the frontends' medians)")
	rep.add("goodput_per_s", "1/s", float64(n)/busy.Seconds(), n, "passes per second of pass wall time")
	rep.add("rss_peak_mb", "MiB", rss, 0, "VmHWM after set-up and the untraced passes")
	if len(fes) == 1 {
		rep.add("mbps", "MB/s", float64(in.bases)/1e6/(median(walls)/1e3), n, "assembly bases per second, median pass")
	} else {
		for i, fe := range fes {
			w, _ := passMS(i)
			rep.add("mbps."+fe.name, "MB/s", float64(in.bases)/1e6/(median(w)/1e3), len(w), "assembly bases per second, median pass")
		}
	}
	rep.add("pass_ms.p90", "ms", quantile(walls, 0.9), n, tailNote(n, 90))
	rep.add("ttfh_ms.p90", "ms", quantile(ttfhs, 0.9), len(ttfhs), tailNote(len(ttfhs), 90))
	rep.add("host.steal_ratio", "ratio", steal, 0, "host CPU time stolen by other guests during the passes; slows every timing")
	rep.add("fail_ratio", "ratio", float64(rep.failed)/float64(rep.attempted), rep.attempted, "errors + mismatches over passes")
	rep.add("ok_ratio", "ratio", 1-float64(rep.failed)/float64(rep.attempted), rep.attempted, "1 - fail_ratio")

	// Layer figures from the untraced passes.
	rep.add("genome.load_ms", "ms", median(loadMS), len(loadMS), "LoadArtifact + Assembly")
	rep.add("genome.chunks", "count", float64(in.chunks), 0, "Chunker.CountChunks")
	rep.add("pipeline.hits", "count", float64(len(in.ref)), 0, "hits per pass")
	rep.add("search.cpu_util", "ratio", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 0, "process CPU time / (wall × GOMAXPROCS)")
	rep.add("search.alloc_mb_per_pass", "MiB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(1<<20)/float64(n), n, "")
	rep.add("search.gc_per_pass", "count", float64(ms1.NumGC-ms0.NumGC)/float64(n), n, "")
	rep.add("baseline.mbps", "MB/s", float64(in.bases)*float64(len(req.Queries))/1e6/in.refBusy.Seconds(), len(req.Queries), "single-threaded internal/baseline scan, per guide")
	if len(devs) > 0 {
		addDeviceLayers(rep, devs, fes, passMS)
	}

	if cfg.trace {
		if err := tracedPasses(cfg, rep, fes, resident, req, spec, median(walls), check); err != nil {
			return nil, err
		}
		if decision != nil {
			rep.add("tune.select_ms", "ms", selectMS, 1, fmt.Sprintf("cold tune.Select on MI100: variant %v, work-group %d", decision.Variant, decision.WGSize))
			distinct, err := statsProbe(cfg.seed)
			if err != nil {
				return nil, fmt.Errorf("stats probe: %w", err)
			}
			rep.add("gpu.stats_distinct.probe", "count", float64(distinct), statsProbePasses,
				"distinct gpu.Stats over identical SimSYCL passes, 1 Mbp, up to 7 mismatches; above 1 is the known alloc.Gather claim-order defect")
		}
		if m, ok := rep.get("pipeline.candidates"); ok && m.Value > 0 {
			rep.add("pipeline.hit_yield", "ratio", float64(len(in.ref))/m.Value, 0, "hits / candidates")
		}
	}
	return rep, nil
}

// tailNote flags a percentile the sample count does not support.
func tailNote(n int, p float64) string {
	if supported(n, p) {
		return ""
	}
	return fmt.Sprintf("fewer than %d samples beyond p%g; highest supported: p%g", minBeyond, p, highestSupported(n))
}

// addDeviceLayers reports the simulator layers from the untraced passes'
// profiles. Kernel, arena and transfer figures are per pass pair: one
// OpenCL pass plus one SYCL pass.
func addDeviceLayers(rep *report, devs []devPass, fes []frontend, passMS func(int) ([]float64, []float64)) {
	firstOf := map[string]devPass{}
	distinct := map[string]map[string]bool{}
	for _, d := range devs {
		if _, ok := firstOf[d.frontend]; !ok {
			firstOf[d.frontend] = d
		}
		if distinct[d.frontend] == nil {
			distinct[d.frontend] = map[string]bool{}
		}
		distinct[d.frontend][d.statsKey] = true
	}
	var pair devPass
	maxDistinct := 0
	for _, fe := range fes {
		d := firstOf[fe.name]
		pair.launches += d.launches
		pair.finder.Add(&d.finder)
		pair.comparer.Add(&d.comparer)
		pair.cand += d.cand
		pair.entries += d.entries
		pair.arenaBytes += d.arenaBytes
		pair.pageClaims += d.pageClaims
		pair.overflowRetries += d.overflowRetries
		pair.wg = d.wg
		maxDistinct = max(maxDistinct, len(distinct[fe.name]))
		rep.add(fe.name+".staged_bytes", "bytes", float64(d.staged), 0, "per pass")
		rep.add(fe.name+".read_bytes", "bytes", float64(d.read), 0, "per pass")
	}
	rep.add("gpu.launches", "count", float64(pair.launches), 0, "per pass pair")
	rep.add("gpu.stats_distinct", "count", float64(maxDistinct), len(devs),
		"distinct per-pass gpu.Stats per frontend, max over frontends; 1 when stats are schedule-independent (known defect: alloc.Gather claim order)")
	for _, k := range []struct {
		name string
		st   gpu.Stats
	}{{"finder", pair.finder}, {"comparer", pair.comparer}} {
		ops := k.st.ALUOps + k.st.GlobalLoadOps + k.st.GlobalStoreOps + k.st.LocalLoadOps + k.st.LocalStoreOps + k.st.ConstantLoadOps + k.st.AtomicOps
		rep.add("kernels."+k.name+".ops", "count", float64(ops), 0, "ALU + memory + atomic ops, per pass pair")
		rep.add("kernels."+k.name+".global_bytes", "bytes", float64(k.st.GlobalBytes()), 0, "per pass pair")
		rep.add("kernels."+k.name+".atomics", "count", float64(k.st.AtomicOps), 0, "per pass pair")
		if gb := k.st.GlobalBytes(); gb > 0 {
			rep.add("kernels."+k.name+".ops_per_byte", "ratio", float64(ops)/float64(gb), 0, "")
		}
	}
	rep.add("pipeline.entries", "count", float64(pair.entries), 0, "comparer entries per pass pair")
	rep.add("alloc.arena_bytes", "bytes", float64(pair.arenaBytes), 0, "per pass pair")
	rep.add("alloc.page_claims", "count", float64(pair.pageClaims), 0, "per pass pair")
	rep.add("alloc.overflow_retries", "count", float64(pair.overflowRetries), 0, "per pass pair")
	if slots := pair.pageClaims * int64(pair.wg); slots > 0 {
		rep.add("alloc.page_fill", "ratio", float64(pair.cand+pair.entries)/float64(slots), 0, "(candidates + entries) / (page claims × work-group size)")
	}

	// The timing model over each frontend's counted work.
	spec := device.MI100()
	plen := len(pattern)
	model := map[string]float64{}
	var wallSum, modelSum float64
	for i, fe := range fes {
		d := firstOf[fe.name]
		est := tune.Estimate(spec, tunedVariant(fe), d.wg, plen, 2)
		s := timing.KernelSeconds(est.Finder, &d.finder) + timing.KernelSeconds(est.Comparer, &d.comparer)
		model[fe.name] = s * 1e3
		rep.add("timing.model_ms."+fe.name, "ms", s*1e3, 0, "modelled MI100 kernel time per pass")
		w, _ := passMS(i)
		wallSum += median(w)
		modelSum += s * 1e3
	}
	if model["sycl"] > 0 {
		rep.add("timing.sycl_speedup", "ratio", model["opencl"]/model["sycl"], 0, "modelled OpenCL / SYCL kernel time")
	}
	if modelSum > 0 {
		rep.add("timing.wall_over_model", "ratio", wallSum/modelSum, 0, "simulator pass wall / modelled kernel time, summed over frontends")
	}
}

// tunedVariant is the comparer the engine's tuner chose for its last pass.
func tunedVariant(fe frontend) kernels.ComparerVariant {
	if p := fe.prof(); p != nil {
		for _, name := range p.TunedVariant {
			for _, v := range kernels.AllVariants() {
				if v.String() == name {
					return v
				}
			}
		}
	}
	return kernels.Base
}

// statsProbePasses identical passes make the stats probe.
const statsProbePasses = 8

// statsProbe counts the distinct per-pass gpu.Stats of identical SimSYCL
// passes (the engine's default comparer and work-group size) over a denser
// search than the device workload's, whose comparer writes a few dozen
// entries per pass: 1 Mbp and up to 7 mismatches.
func statsProbe(seed int64) (int, error) {
	asm, err := hg38Like(seed, 1<<20)
	if err != nil {
		return 0, err
	}
	req := &search.Request{Pattern: bench.ExamplePattern}
	for _, q := range bench.ExampleQueries() {
		req.Queries = append(req.Queries, search.Query{Guide: q.Guide, MaxMismatches: 7})
	}
	e := &search.SimSYCL{Device: gpu.New(device.MI100())}
	keys := map[string]bool{}
	for i := 0; i < statsProbePasses; i++ {
		if err := e.Stream(context.Background(), asm, req, func(search.Hit) error { return nil }); err != nil {
			return 0, err
		}
		keys[devPassOf("sycl", e.LastProfile()).statsKey] = true
	}
	return len(keys), nil
}

// tracedPasses repeats the closed loop with the program's tracer and
// metrics hooks on, records the benchmark's own spans around Compile and
// Stream, folds the program's spans into each pass and reports the layer
// breakdown.
func tracedPasses(cfg runConfig, rep *report, fes []frontend, asm *genome.Assembly, req *search.Request,
	spec closedSpec, untracedMedian float64, check func(frontend, passResult)) error {
	tracer := obs.NewTracer()
	metrics := obs.NewMetrics()
	for _, fe := range fes {
		fe.setObs(tracer, metrics)
	}
	defer func() {
		for _, fe := range fes {
			fe.setObs(nil, nil)
		}
	}()
	rec := newRecorder(time.Now())
	type traced struct {
		root    span
		compile time.Duration
		emit    time.Duration
	}
	var passes []traced
	var walls []float64
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds; i++ {
		fe := fes[i%len(fes)]
		unit := fmt.Sprintf("pass-%d", i)
		c0 := time.Now()
		_, err := pipeline.Compile(req)
		c1 := time.Now()
		if err != nil {
			return err
		}
		rec.add(unit, "bench", "pipeline.compile", 0, c0, c1)
		p0 := time.Now()
		res := runPass(fe, asm, req, false, spec.json, true)
		p1 := time.Now()
		check(fe, res)
		root := rec.add(unit, "bench", "pass", 0, p0, p1, obs.Attr{Key: "frontend", Value: fe.name})
		passes = append(passes, traced{root: root, compile: c1.Sub(c0), emit: res.emit})
		walls = append(walls, ms(res.wall))
	}
	prog := tracer.Spans()
	for _, p := range passes {
		rec.fold(p.root, prog)
	}
	all := rec.all()
	self := selfTimes(all)
	byUnit := map[string][]span{}
	for _, s := range all {
		byUnit[s.Unit] = append(byUnit[s.Unit], s)
	}
	layers := map[string][]float64{}
	var coverage, compileMS, emitMS, cands []float64
	for _, p := range passes {
		sum := map[string]time.Duration{}
		var cand int64
		var direct []span
		scans := map[string][]span{}
		for _, s := range byUnit[p.root.Unit] {
			if s.Parent == p.root.ID {
				direct = append(direct, s)
			}
			switch {
			case s.Track == "bench":
			case strings.HasPrefix(s.Name, "launch:finder"):
				sum["gpu.finder_launch_ms"] += s.dur()
			case strings.HasPrefix(s.Name, "launch:"):
				sum["gpu.comparer_launch_ms"] += s.dur()
			default:
				sum["pipeline."+s.Name+"_ms"] += self[s.ID]
				if s.Name == "find" {
					cand += s.attr("candidates")
				}
				if s.Name == "scan" {
					scans[s.Track] = append(scans[s.Track], s)
				}
			}
		}
		// Scan-track idle time: from the pass start to each worker's last
		// scan, the part no scan covers is spent waiting for a staged chunk.
		var wait time.Duration
		for _, ss := range scans {
			last := p.root.Start
			for _, s := range ss {
				last = max(last, s.End)
			}
			wait += last - p.root.Start - covered(ss, p.root.Start, last)
		}
		sum["pipeline.stage_wait_ms"] = wait
		for _, name := range []string{"pipeline.stage_ms", "pipeline.find_ms", "pipeline.compare_ms", "pipeline.drain_ms",
			"pipeline.stage_wait_ms", "gpu.finder_launch_ms", "gpu.comparer_launch_ms"} {
			layers[name] = append(layers[name], ms(sum[name]))
		}
		coverage = append(coverage, float64(covered(direct, p.root.Start, p.root.End))/float64(p.root.dur()))
		compileMS = append(compileMS, ms(p.compile))
		emitMS = append(emitMS, ms(p.emit))
		cands = append(cands, float64(cand))
	}
	n := len(passes)
	rep.add("pipeline.compile_ms", "ms", median(compileMS), n, "pipeline.Compile")
	names := make([]string, 0, len(layers))
	for name := range layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, "gpu.") && !spec.device {
			continue
		}
		rep.add(name, "ms", median(layers[name]), n, "self time per pass, median")
	}
	rep.add("pipeline.emit_ms", "ms", median(emitMS), n, "time in the benchmark's emit callback per pass")
	rep.add("pipeline.candidates", "count", median(cands), n, "PAM candidates per pass (find spans)")
	cov := median(coverage)
	rep.add("trace.coverage", "ratio", cov, n, fmt.Sprintf("share of pass wall covered by layer spans, median; tolerance ≥ %.2f", coverageMin))
	rep.add("trace.overhead", "ratio", median(walls)/untracedMedian, n, "traced / untraced median pass wall")
	if cov < coverageMin {
		rep.invalid = append(rep.invalid, fmt.Sprintf("trace.coverage %.3f below %.2f", cov, coverageMin))
	}
	return rec.write(cfg.spans)
}
