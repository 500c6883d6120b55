// Command casoffinder searches genome assemblies for potential off-target
// sites of Cas9 RNA-guided endonucleases, reading the upstream Cas-OFFinder
// input format:
//
//	/path/to/genome_dir_or_fasta
//	NNNNNNNNNNNNNNNNNNNNNRG [dnabulge rnabulge]
//	GGCCGACCTGTCGCTGACGCNNN 5
//	...
//
// Usage:
//
//	casoffinder [-engine cpu|opencl|sycl] [-device MI100] [-variant auto]
//	            [-autotune model|calibrate]
//	            [-devices radeonvii,mi60,mi100]
//	            [-index build|use] [-index-file genome.cart]
//	            [-worst-case-arena]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	            [-fault-rate 0.05 -fault-seed 42] [-watchdog 5s]
//	            [-trace trace.json] [-metrics metrics.prom]
//	            [-format text|json] [-timeout 30s]
//	            [-o output.txt] input.txt
//
// The cpu engine is the production path: a bit-parallel SWAR scan over the
// 2-bit packed genome, all guides batched into one pass per chunk. The
// opencl and sycl engines run the paper's two applications on the device
// simulator and print a kernel profile to stderr. -cpuprofile and -memprofile write pprof profiles covering the
// search.
//
// -index persists the genome in its search-ready form: "build" parses the
// FASTA once, writes a packed artifact (2-bit words, unknown-lane masks, a
// precomputed PAM-site index for this input's pattern) next to the genome
// (or at -index-file), and searches from it; "use" loads the artifact with
// an O(header) zero-copy load, skipping FASTA parsing and packing entirely.
// Output is byte-identical either way, on every engine.
//
// -variant defaults to "auto": the occupancy autotuner (internal/tune)
// compiles every comparer variant for the target device, scores each
// (variant, work-group size) pair with the per-chunk cost model at the
// occupancy the variant achieves, and launches the argmin — per device, so a
// heterogeneous -devices fleet can run a different kernel on each member. A
// named -variant (base, opt1..opt4, bitparallel) forces that kernel and
// bypasses the tuner. -autotune calibrate additionally re-ranks the tuner's
// finalists on real measured launches over a small synthetic chunk (on a
// private simulated device, so fault schedules and metrics are untouched).
// The selected kernel per device is reported on stderr with the profile;
// output is byte-identical across all variants and both autotune modes.
//
// -devices runs the sycl engine across a simulated multi-GPU fleet behind
// the work-stealing scheduler: a comma-separated list of device names
// (radeonvii, mi60, mi100 — repeats allowed), each fleet slot seeded with a
// cost-model-proportional shard of the chunk plan and idle devices stealing
// from the most loaded one. Output stays byte-identical to a single-device
// run. With fault injection, each slot gets its own schedule (seeded
// -fault-seed + slot index) and a device that exhausts its retries is
// evicted, its queue redistributed to the survivors.
//
// The fault flags drive the simulator engines through seeded deterministic
// fault injection with the resilient pipeline enabled: transient failures
// retry with backoff, hung kernels are reaped by -watchdog, and chunks the
// simulated device cannot complete fail over to the CPU engine, preserving
// the output byte-for-byte. A degradation summary goes to stderr.
//
// -trace records every pipeline stage, kernel launch and resilience event
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto);
// -metrics writes the run's counters and latency histograms as Prometheus
// text exposition plus a JSON snapshot merged with the engine profile at
// FILE.json. Both are off (and cost nothing) by default.
//
// -format json emits each hit as one NDJSON object (the same encoding
// casoffinderd streams) instead of the tab-separated text lines. -timeout
// bounds the whole run: an expired deadline cancels the in-flight search
// and exits 1 with a client.deadline error.
//
// Exit codes: 0 on success, 1 on a runtime error, 2 on a usage error, 3
// when quarantined chunks made the result partial.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"casoffinder/internal/bulge"
	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// Exit codes, so scripts can tell a bad invocation (2) from a failed run
// (1) and a run that completed with quarantined chunks (3).
const (
	exitOK      = 0
	exitRuntime = 1
	exitUsage   = 2
	exitPartial = 3
)

// usageError marks a command-line mistake so main exits with exitUsage.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// exitCode maps a run error to the process exit code.
func exitCode(err error) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return exitOK
	}
	var ue usageError
	if errors.As(err, &ue) {
		return exitUsage
	}
	var pe *pipeline.PartialError
	if errors.As(err, &pe) {
		return exitPartial
	}
	return exitRuntime
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "casoffinder:", err)
	}
	os.Exit(exitCode(err))
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("casoffinder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	engineName := fs.String("engine", "cpu", "search engine: cpu, indexed, opencl or sycl")
	deviceName := fs.String("device", "MI100", "simulated device for the opencl/sycl engines")
	devicesFlag := fs.String("devices", "", "comma-separated device fleet for the sycl engine (radeonvii, mi60, mi100; repeats allowed) — runs the work-stealing multi-device scheduler")
	variantName := fs.String("variant", "auto", "comparer kernel variant: auto (per-device occupancy autotuner), base, opt1..opt4 or bitparallel")
	autotuneMode := fs.String("autotune", "model", "autotuner mode for -variant auto: model (analytic scoring only) or calibrate (re-rank finalists on measured launches)")
	outPath := fs.String("o", "", "output file (default stdout)")
	format := fs.String("format", "text", "hit output format: text (tab-separated) or json (NDJSON, one hit object per line)")
	timeout := fs.Duration("timeout", 0, "overall run deadline; an expired run exits 1 with a client.deadline error (0 = none)")
	workers := fs.Int("workers", 0, "cpu engine workers (0 = all cores)")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a pprof heap profile to this file on exit")
	faultRate := fs.Float64("fault-rate", 0, "simulator fault injection probability in [0, 1] (0 = off)")
	faultSeed := fs.Uint64("fault-seed", 1, "seed for the deterministic fault schedule and retry jitter")
	faultSite := fs.String("fault-site", "", "restrict injection to one fault site (default: all sites)")
	faultAfter := fs.Int("fault-after", 0, "skip the first N eligible events per site before injecting")
	watchdog := fs.Duration("watchdog", 0, "deadline per backend phase; a hung simulated kernel is cancelled and retried (0 = off)")
	maxRetries := fs.Int("max-retries", 0, "chunk retries before CPU failover (0 = default 2, negative = none)")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON of the run to this file (open in chrome://tracing or Perfetto)")
	metricsPath := fs.String("metrics", "", "write run metrics to this file (Prometheus text; a merged JSON snapshot goes to FILE.json)")
	worstArena := fs.Bool("worst-case-arena", false, "simulator engines: pin every hit-buffer arena to its worst-case size instead of density-driven provisioning (the staged-bytes ablation baseline; output is byte-identical either way)")
	indexMode := fs.String("index", "", "genome artifact mode: 'build' packs the genome (with a PAM-site index for this input's pattern) into the artifact file and searches from it; 'use' loads a previously built artifact instead of parsing FASTA")
	indexFile := fs.String("index-file", "", "genome artifact path for -index (default: the input's genome path + \".cart\")")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if fs.NArg() != 1 {
		return usageError{fmt.Errorf("usage: casoffinder [flags] input.txt")}
	}
	if *faultRate < 0 || *faultRate > 1 {
		return usageError{fmt.Errorf("-fault-rate %v outside [0, 1]", *faultRate)}
	}
	switch *format {
	case "text", "json":
	default:
		return usageError{fmt.Errorf("unknown -format %q (want text or json)", *format)}
	}
	if *timeout < 0 {
		return usageError{fmt.Errorf("-timeout %v is negative", *timeout)}
	}
	faultPlan := fault.Plan{Seed: *faultSeed, Rate: *faultRate, After: *faultAfter}
	if *faultSite != "" {
		site, serr := fault.ParseSite(*faultSite)
		if serr != nil {
			return usageError{serr}
		}
		faultPlan.Site = site
	}
	var res *pipeline.Resilience
	if *faultRate > 0 || *watchdog > 0 {
		res = &pipeline.Resilience{MaxRetries: *maxRetries, Watchdog: *watchdog, Seed: *faultSeed}
	}

	if *cpuProfile != "" {
		f, ferr := os.Create(*cpuProfile)
		if ferr != nil {
			return ferr
		}
		defer f.Close()
		if perr := pprof.StartCPUProfile(f); perr != nil {
			return perr
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			werr := writeHeapProfile(*memProfile)
			if err == nil {
				err = werr
			}
		}()
	}

	inFile, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	input, err := search.ParseInput(inFile)
	inFile.Close()
	if err != nil {
		return err
	}

	asm, err := loadAssembly(input, *indexMode, *indexFile, stderr)
	if err != nil {
		return err
	}

	variant, auto, err := parseVariant(*variantName)
	if err != nil {
		return usageError{err}
	}
	var calibrate bool
	switch *autotuneMode {
	case "model":
	case "calibrate":
		calibrate = true
	default:
		return usageError{fmt.Errorf("unknown -autotune mode %q (want model or calibrate)", *autotuneMode)}
	}
	if calibrate && !auto {
		return usageError{fmt.Errorf("-autotune calibrate tunes the kernel selection, which -variant %s forces; use -variant auto", *variantName)}
	}
	var tracer *obs.Tracer
	if *tracePath != "" {
		tracer = obs.NewTracer()
	}
	var metrics *obs.Metrics
	if *metricsPath != "" {
		metrics = obs.NewMetrics()
	}

	fleet, err := parseFleet(*devicesFlag)
	if err != nil {
		return err
	}

	eng, profiler, err := buildEngine(*engineName, *deviceName, fleet, variant, auto, calibrate, *workers, *worstArena, faultPlan, res, tracer, metrics)
	if err != nil {
		return err
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	var runErr error
	if input.DNABulge > 0 || input.RNABulge > 0 {
		// The bulge search runs whole-result (no stream to time out or
		// re-encode); keep its single output format honest rather than
		// silently ignoring the flags.
		if *format == "json" {
			return usageError{fmt.Errorf("-format json covers the mismatch-only stream; bulge-annotated output is text only")}
		}
		if *timeout > 0 {
			return usageError{fmt.Errorf("-timeout covers the streaming search; bulge runs are not cancellable")}
		}
		hits, err := bulge.Search(eng, asm, &input.Request, bulge.Options{
			MaxDNABulge: input.DNABulge,
			MaxRNABulge: input.RNABulge,
		})
		if err != nil {
			return err
		}
		for _, h := range hits {
			guide := input.Request.Queries[h.QueryIndex].Guide
			fmt.Fprintf(out, "%s\t%s\t%d\t%s\t%c\t%d\t%s:%d\n",
				guide, h.SeqName, h.Pos, h.Site, h.Dir, h.Mismatches, h.BulgeType, h.BulgeSize)
		}
	} else {
		// Stream output lines as chunks complete instead of collecting the
		// whole result first; an interrupt (or -timeout) cancels the
		// in-flight search.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if *timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, *timeout)
			defer cancel()
		}
		writeHit := search.WriteHit
		if *format == "json" {
			writeHit = search.WriteHitJSON
		}
		bw := bufio.NewWriter(out)
		count := 0
		runErr = eng.Stream(ctx, asm, &input.Request, func(h search.Hit) error {
			count++
			return writeHit(bw, &input.Request, h)
		})
		if ferr := bw.Flush(); runErr == nil {
			runErr = ferr
		}
		if *timeout > 0 && errors.Is(runErr, context.DeadlineExceeded) {
			// The run overran its own budget: label it with the
			// client.deadline site so the failure reads as a deliberate
			// cutoff, and exit 1 (a runtime outcome, not partial output —
			// nothing says the missing chunks would have quarantined).
			runErr = fault.New(fault.SiteDeadline, fault.Fatal,
				fmt.Errorf("run exceeded -timeout %v", *timeout))
		}
		var pe *pipeline.PartialError
		if runErr == nil || errors.As(runErr, &pe) {
			// A partial run still emitted every non-quarantined chunk's
			// hits; report the count alongside the exitPartial error.
			fmt.Fprintf(stderr, "%d sites reported\n", count)
		}
	}

	if profiler != nil {
		if p := profiler.LastProfile(); p != nil {
			fmt.Fprintf(stderr, "profile: %d chunks, %d candidate sites, %d entries\n",
				p.Chunks, p.CandidateSites, p.Entries)
			for name, s := range p.Kernels {
				fmt.Fprintf(stderr, "  kernel %-14s launches=%-4d %s\n", name, p.Launches[name], s.String())
			}
			printAutotune(stderr, p)
			printDegradation(stderr, p)
		}
	}

	// Observability artifacts are written even on a partial run — a trace
	// of a degraded run is exactly what the flags exist for.
	if tracer != nil {
		if werr := writeTrace(*tracePath, tracer); runErr == nil && err == nil {
			err = werr
		} else if werr != nil {
			fmt.Fprintln(stderr, "casoffinder: trace:", werr)
		}
	}
	if metrics != nil {
		var prof *search.Profile
		if profiler != nil {
			prof = profiler.LastProfile()
		}
		if werr := writeMetrics(*metricsPath, metrics, prof); runErr == nil && err == nil {
			err = werr
		} else if werr != nil {
			fmt.Fprintln(stderr, "casoffinder: metrics:", werr)
		}
	}
	if err != nil {
		return err
	}
	return runErr
}

// loadAssembly resolves the input's genome through the -index flow: the
// default parses FASTA per run; "build" parses once, packs the assembly
// (with a PAM-site shard for the input's scaffold) into the artifact file
// and searches from the resident artifact; "use" skips FASTA entirely and
// loads the artifact — an O(header) load that maps the packed payload in
// place. Either artifact path yields an assembly whose engines consume the
// resident word views, and whose hit stream is byte-identical to a FASTA
// run.
func loadAssembly(input *search.Input, mode, path string, stderr io.Writer) (*genome.Assembly, error) {
	if path == "" {
		path = strings.TrimSuffix(input.GenomeDir, string(os.PathSeparator)) + ".cart"
	}
	switch mode {
	case "":
		return genome.LoadDir(input.GenomeDir)
	case "build":
		asm, err := genome.LoadDir(input.GenomeDir)
		if err != nil {
			return nil, err
		}
		art, err := search.BuildArtifact(asm, input.Request.Pattern)
		if err != nil {
			return nil, err
		}
		if err := art.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(stderr, "index: wrote %s (%d sequences, %d PAM candidates)\n", path, art.SeqCount(), art.PAMCount())
		return art.Assembly(), nil
	case "use":
		art, err := genome.LoadArtifact(path)
		if err != nil {
			return nil, err
		}
		if !art.HasPAMIndex(input.Request.Pattern) {
			fmt.Fprintf(stderr, "index: %s has no PAM index for pattern %s (built for %q); prefilter will run from the resident words\n",
				path, input.Request.Pattern, art.Pattern())
		}
		return art.Assembly(), nil
	default:
		return nil, usageError{fmt.Errorf("unknown -index mode %q (want build or use)", mode)}
	}
}

// writeTrace dumps the run's spans as Chrome trace-event JSON.
func writeTrace(path string, t *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteChromeTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeMetrics dumps the run's metric registry twice: Prometheus text
// exposition at path, and a JSON document at path+".json" merging the
// snapshot with the engine's search.Profile (when one exists) so the two
// accountings sit side by side.
func writeMetrics(path string, m *obs.Metrics, prof *search.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = m.WritePrometheus(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	doc := struct {
		Metrics *obs.Snapshot   `json:"metrics"`
		Profile *search.Profile `json:"profile,omitempty"`
	}{Metrics: m.Snapshot(), Profile: prof}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path+".json", append(data, '\n'), 0o644)
}

// printDegradation reports how far the run strayed from the clean path: the
// resilience counters, the asynchronous exceptions the SYCL handler saw and
// the injected fault events by site. Silent on a clean run.
func printDegradation(stderr io.Writer, p *search.Profile) {
	if p.Degraded() || p.AsyncExceptions > 0 {
		fmt.Fprintf(stderr, "degraded: retries=%d failovers=%d watchdog-kills=%d quarantined=%d async-exceptions=%d\n",
			p.Retries, p.Failovers, p.WatchdogKills, p.QuarantinedChunks, p.AsyncExceptions)
	}
	if len(p.DeviceChunks) > 0 {
		fmt.Fprintf(stderr, "scheduler: steals=%d evictions=%d\n", p.Steals, p.Evictions)
		names := make([]string, 0, len(p.DeviceChunks))
		for name := range p.DeviceChunks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stderr, "  device %-14s chunks=%-4d steals=%d\n", name, p.DeviceChunks[name], p.DeviceSteals[name])
		}
	}
	if len(p.Faults) > 0 {
		sites := make([]string, 0, len(p.Faults))
		for site := range p.Faults {
			sites = append(sites, string(site))
		}
		sort.Strings(sites)
		fmt.Fprintf(stderr, "faults:")
		for _, site := range sites {
			fmt.Fprintf(stderr, " %s=%d", site, p.Faults[fault.Site(site)])
		}
		fmt.Fprintln(stderr)
	}
}

// writeHeapProfile snapshots the heap to path after a final collection, so
// the profile reflects live allocations rather than garbage.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = pprof.WriteHeapProfile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseFleet maps the -devices list to simulated device specs. Names are
// case-insensitive; the empty flag means "no fleet" (single-device path).
func parseFleet(list string) ([]device.Spec, error) {
	if list == "" {
		return nil, nil
	}
	names := strings.Split(list, ",")
	fleet := make([]device.Spec, 0, len(names))
	for _, name := range names {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "radeonvii", "rvii":
			fleet = append(fleet, device.RadeonVII())
		case "mi60":
			fleet = append(fleet, device.MI60())
		case "mi100":
			fleet = append(fleet, device.MI100())
		default:
			return nil, usageError{fmt.Errorf("unknown device %q in -devices (want radeonvii, mi60 or mi100)", strings.TrimSpace(name))}
		}
	}
	return fleet, nil
}

// printAutotune reports the tuner's kernel selection per engine track,
// sorted for a deterministic summary. Silent when no tuner ran.
func printAutotune(stderr io.Writer, p *search.Profile) {
	if len(p.TunedVariant) == 0 {
		return
	}
	mode := "model"
	if p.TuneCalibrations > 0 {
		mode = "calibrated"
	}
	tracks := make([]string, 0, len(p.TunedVariant))
	for track := range p.TunedVariant {
		tracks = append(tracks, track)
	}
	sort.Strings(tracks)
	for _, track := range tracks {
		fmt.Fprintf(stderr, "autotune: %-14s variant=%s wg=%d (%s, %d candidates scored)\n",
			track, p.TunedVariant[track], p.TunedWGSize[track], mode, p.TuneCandidates/p.TuneDecisions)
	}
}

// parseVariant resolves the -variant flag: "auto" selects the occupancy
// autotuner, a variant name forces that kernel.
func parseVariant(name string) (kernels.ComparerVariant, bool, error) {
	if name == "auto" {
		return 0, true, nil
	}
	for _, v := range kernels.AllVariants() {
		if v.String() == name {
			return v, false, nil
		}
	}
	return 0, false, fmt.Errorf("unknown comparer variant %q (want auto, base, opt1..opt4 or bitparallel)", name)
}

func buildEngine(engine, deviceName string, fleet []device.Spec, variant kernels.ComparerVariant, auto, calibrate bool, workers int, worstArena bool,
	faultPlan fault.Plan, res *pipeline.Resilience, tracer *obs.Tracer, metrics *obs.Metrics) (search.Engine, search.Profiler, error) {
	if len(fleet) > 0 && engine != "sycl" {
		return nil, nil, usageError{fmt.Errorf("-devices runs the multi-device scheduler, which needs -engine sycl, not %q", engine)}
	}
	switch engine {
	case "cpu", "indexed":
		// The fault sites all live in the simulated runtimes; a silent
		// no-op here would make "-fault-rate 0.3 -engine cpu" look like a
		// passing resilience run.
		if faultPlan.Rate > 0 || res != nil {
			return nil, nil, usageError{fmt.Errorf("fault injection flags need the opencl or sycl engine, not %q", engine)}
		}
		if worstArena {
			return nil, nil, usageError{fmt.Errorf("-worst-case-arena pins the simulator hit arenas, which need the opencl or sycl engine, not %q", engine)}
		}
		if engine == "cpu" {
			return &search.CPU{Workers: workers, Trace: tracer, Metrics: metrics}, nil, nil
		}
		return &search.Indexed{Workers: workers, Trace: tracer, Metrics: metrics}, nil, nil
	case "opencl", "sycl":
		if len(fleet) > 0 {
			devs := make([]*gpu.Device, len(fleet))
			for i, spec := range fleet {
				devs[i] = gpu.New(spec)
				if faultPlan.Rate > 0 {
					// Each fleet slot gets its own deterministic schedule:
					// same plan, seed offset by the slot index.
					plan := faultPlan
					plan.Seed += uint64(i)
					if in := fault.NewInjector(plan); in != nil {
						devs[i].SetFaults(in)
					}
				}
			}
			e := &search.MultiSYCL{Devices: devs, Variant: variant, Auto: auto, Calibrate: calibrate, WorstCaseArena: worstArena, Resilience: res, Trace: tracer, Metrics: metrics}
			return e, e, nil
		}
		spec, err := device.ByName(deviceName)
		if err != nil {
			return nil, nil, usageError{err}
		}
		dev := gpu.New(spec)
		if in := fault.NewInjector(faultPlan); in != nil {
			dev.SetFaults(in)
		}
		if engine == "opencl" {
			e := &search.SimCL{Device: dev, Variant: variant, Auto: auto, Calibrate: calibrate, WorstCaseArena: worstArena, Resilience: res, Trace: tracer, Metrics: metrics}
			return e, e, nil
		}
		e := &search.SimSYCL{Device: dev, Variant: variant, Auto: auto, Calibrate: calibrate, WorstCaseArena: worstArena, Resilience: res, Trace: tracer, Metrics: metrics}
		return e, e, nil
	default:
		return nil, nil, usageError{fmt.Errorf("unknown engine %q (want cpu, indexed, opencl or sycl)", engine)}
	}
}
