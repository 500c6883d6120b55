// Command perfbench is the repository's benchmark: one seeded workload per
// run against the program's public entry points (genome.LoadArtifact,
// pipeline.Compile, the engines' Stream, search.WriteHitJSON and
// serve.Server.Handler), with every hit stream checked against the
// internal/baseline reference.
//
//	perfbench --workload scan-sparse|scan-dense|device|serve|all --seed N --seconds S --trace 0|1 [--out result.json]
//	perfbench compare old.json new.json
//
// With --trace 0 the last line of standard output is the JSON result with
// the end-to-end metrics; with --trace 1 the run is repeated with the
// program's tracer and metrics hooks on and the line carries the per-layer
// metrics. The lines before it are the full metric table (every metric with
// its unit and sample count) and the host fingerprint. README.md explains
// the workloads and the layer-to-metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// metric is one measured figure. N is the sample count a timing or rate
// was taken over (0 for counts and ratios).
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

// endToEnd are the metrics every untraced run reports in its result line,
// the ones a regression gate compares. Each has a meaning on every
// workload; README.md gives it per workload. Latency and time to first hit
// are in the table but not here: on a host whose CPUs are stolen by other
// guests for seconds at a time, the serve workload's request latency moves
// by half between runs of the same seed.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s"},
	{Name: "goodput_per_s", Unit: "1/s"},
	{Name: "rss_peak_mb", Unit: "MiB"},
	{Name: "ok_ratio", Unit: "ratio"},
}

// perLayer are the metrics every traced run reports in its result line. A
// layer the workload does not run reads 0.
var perLayer = []metric{
	{Name: "genome.load_ms", Unit: "ms"},
	{Name: "genome.chunks", Unit: "count"},
	{Name: "pipeline.compile_ms", Unit: "ms"},
	{Name: "pipeline.stage_ms", Unit: "ms"},
	{Name: "pipeline.find_ms", Unit: "ms"},
	{Name: "pipeline.compare_ms", Unit: "ms"},
	{Name: "pipeline.drain_ms", Unit: "ms"},
	{Name: "pipeline.stage_wait_ms", Unit: "ms"},
	{Name: "pipeline.emit_ms", Unit: "ms"},
	{Name: "pipeline.candidates", Unit: "count"},
	{Name: "pipeline.entries", Unit: "count"},
	{Name: "pipeline.hits", Unit: "count"},
	{Name: "pipeline.hit_yield", Unit: "ratio"},
	{Name: "search.cpu_util", Unit: "ratio"},
	{Name: "search.alloc_mb_per_pass", Unit: "MiB"},
	{Name: "search.gc_per_pass", Unit: "count"},
	{Name: "baseline.mbps", Unit: "MB/s"},
	{Name: "gpu.launches", Unit: "count"},
	{Name: "gpu.finder_launch_ms", Unit: "ms"},
	{Name: "gpu.comparer_launch_ms", Unit: "ms"},
	{Name: "gpu.stats_distinct", Unit: "count"},
	{Name: "kernels.finder.ops", Unit: "count"},
	{Name: "kernels.finder.global_bytes", Unit: "bytes"},
	{Name: "kernels.finder.atomics", Unit: "count"},
	{Name: "kernels.finder.ops_per_byte", Unit: "ratio"},
	{Name: "kernels.comparer.ops", Unit: "count"},
	{Name: "kernels.comparer.global_bytes", Unit: "bytes"},
	{Name: "kernels.comparer.atomics", Unit: "count"},
	{Name: "kernels.comparer.ops_per_byte", Unit: "ratio"},
	{Name: "alloc.arena_bytes", Unit: "bytes"},
	{Name: "alloc.page_claims", Unit: "count"},
	{Name: "alloc.overflow_retries", Unit: "count"},
	{Name: "alloc.page_fill", Unit: "ratio"},
	{Name: "opencl.staged_bytes", Unit: "bytes"},
	{Name: "opencl.read_bytes", Unit: "bytes"},
	{Name: "sycl.staged_bytes", Unit: "bytes"},
	{Name: "sycl.read_bytes", Unit: "bytes"},
	{Name: "tune.select_ms", Unit: "ms"},
	{Name: "timing.model_ms.opencl", Unit: "ms"},
	{Name: "timing.model_ms.sycl", Unit: "ms"},
	{Name: "timing.sycl_speedup", Unit: "ratio"},
	{Name: "timing.wall_over_model", Unit: "ratio"},
	{Name: "serve.decode_ms", Unit: "ms"},
	{Name: "serve.queue_ms.p50", Unit: "ms"},
	{Name: "serve.queue_ms.p99", Unit: "ms"},
	{Name: "serve.stream_ms.p50", Unit: "ms"},
	{Name: "serve.stream_ms.p99", Unit: "ms"},
	{Name: "serve.coalesce_factor", Unit: "ratio"},
	{Name: "serve.reject.bytes", Unit: "count"},
	{Name: "serve.reject.queue", Unit: "count"},
	{Name: "serve.reject.quota", Unit: "count"},
	{Name: "serve.reject.deadline", Unit: "count"},
	{Name: "serve.shed", Unit: "count"},
	{Name: "serve.canceled", Unit: "count"},
	{Name: "serve.ndjson_bytes_per_req", Unit: "bytes"},
	{Name: "loadgen.lag_ms.p99", Unit: "ms"},
	{Name: "loadgen.sent", Unit: "count"},
	{Name: "loadgen.completed", Unit: "count"},
	{Name: "trace.overhead", Unit: "ratio"},
	{Name: "trace.coverage", Unit: "ratio"},
}

// Validity bounds of a traced run: the layer spans must cover at least
// coverageMin of each pass's (or, for serve, all requests') wall time. The
// upper end is 1 by construction, since spans are clipped to the pass.
const coverageMin = 0.90

// report is what a workload run produces.
type report struct {
	// rows holds every metric the run measured, under the names README.md
	// lists, in the order measured.
	rows []metric
	// attempted counts passes or requests; failed those that errored or
	// whose hit stream differed from the reference; refused the requests
	// the server turned away (429/503), which are not failures of the
	// program but count against ok_ratio and fail_ratio.
	attempted, failed, refused int
	// problems describes each correctness failure.
	problems []string
	// invalid describes why the run's numbers do not describe the load
	// they claim to (generator lag, trace coverage).
	invalid []string
}

func (r *report) add(name, unit string, value float64, n int, note string) {
	r.rows = append(r.rows, metric{Name: name, Unit: unit, Value: value, N: n, Note: note})
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) get(name string) (metric, bool) {
	for i := len(r.rows) - 1; i >= 0; i-- {
		if r.rows[i].Name == name {
			return r.rows[i], true
		}
	}
	return metric{}, false
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// dir is the scratch directory for generated artifacts, removed when
	// the run ends; spans is the file a traced run writes its spans to.
	dir, spans string
}

var workloads = map[string]func(runConfig) (*report, error){
	"scan-sparse": runScanSparse,
	"scan-dense":  runScanDense,
	"device":      runDevice,
	"serve":       runServe,
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the --out file: everything a later comparison needs.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seconds     float64     `json:"seconds"`
	Trace       bool        `json:"trace"`
	Rows        []metric    `json:"rows"`
	Result      resultLine  `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Exit codes: 1 a failed run or a hit-stream mismatch, 2 a usage error, 3
// an invalid run.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "scan-sparse, scan-dense, device, serve, or all of them one after another")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds (a traced run measures twice: untraced, then traced)")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	workdir := fs.String("workdir", ".bench_build", "directory for generated inputs and span dumps")
	out := fs.String("out", "", "also write the full result with its host fingerprint to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if (!ok && *name != "all") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (all or one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if *name == "all" {
		if *out != "" {
			fmt.Fprintln(stderr, "perfbench: --out needs a single workload")
			return 2
		}
		return runAll(args, stdout, stderr)
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("perfbench-%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	fp := hostFingerprint(*seed)
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, dir: dir,
		spans: filepath.Join(*workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", *name, *seed))}
	rep, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printTable(stdout, *name, rep)
	for _, p := range rep.problems {
		fmt.Fprintf(stderr, "perfbench: %s: MISMATCH: %s\n", *name, p)
	}
	if len(rep.invalid) > 0 {
		for _, why := range rep.invalid {
			fmt.Fprintf(stderr, "perfbench: %s: invalid run: %s\n", *name, why)
		}
		return 3
	}
	res := resultLine{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]resultValue{}}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		got, ok := rep.get(m.Name)
		if !ok && !cfg.trace {
			fmt.Fprintf(stderr, "perfbench: %s: end-to-end metric %s was not measured\n", *name, m.Name)
			return 1
		}
		res.Metrics[m.Name] = resultValue{Value: got.Value, Unit: m.Unit}
	}
	if *out != "" {
		data, _ := json.MarshalIndent(record{Fingerprint: fp, Workload: *name, Seconds: *seconds, Trace: cfg.trace, Rows: rep.rows, Result: res}, "", "  ")
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn, each in a process of its own so that
// each measures its own peak RSS, and returns the worst exit code.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	worst := 0
	for _, name := range []string{"scan-sparse", "scan-dense", "device", "serve"} {
		// A later flag overrides an earlier one, so the workload is appended.
		cmd := exec.Command(exe, append(append([]string(nil), args...), "--workload", name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		code := 0
		if err := cmd.Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				fmt.Fprintln(stderr, "perfbench:", err)
				return 1
			}
			code = exit.ExitCode()
		}
		worst = max(worst, code)
	}
	return worst
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printTable(w io.Writer, workload string, rep *report) {
	fmt.Fprintf(w, "%-12s %-32s %16s %-7s %6s  %s\n", "workload", "metric", "value", "unit", "n", "note")
	for _, m := range rep.rows {
		n := ""
		if m.N > 0 {
			n = fmt.Sprint(m.N)
		}
		fmt.Fprintf(w, "%-12s %-32s %16.6g %-7s %6s  %s\n", workload, m.Name, m.Value, m.Unit, n, m.Note)
	}
	fmt.Fprintf(w, "%-12s attempted %d, failed %d, refused %d\n", workload, rep.attempted, rep.failed, rep.refused)
}

// compareMain prints new/old ratios for every metric two --out records
// share, refusing records measured on different hosts or workloads.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare old.json new.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: compare: %s: %v\n", path, err)
			return 1
		}
	}
	if err := comparable(recs[0], recs[1]); err != nil {
		fmt.Fprintln(stderr, "perfbench: compare: refusing:", err)
		return 2
	}
	old := map[string]metric{}
	for _, m := range recs[0].Rows {
		old[m.Name] = m
	}
	fmt.Fprintf(stdout, "%-32s %16s %16s %8s\n", "metric", "old", "new", "new/old")
	for _, m := range recs[1].Rows {
		o, ok := old[m.Name]
		if !ok {
			continue
		}
		ratio := "-"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%.3f", m.Value/o.Value)
		}
		fmt.Fprintf(stdout, "%-32s %16.6g %16.6g %8s  %s\n", m.Name, o.Value, m.Value, ratio, m.Unit)
	}
	return 0
}

// comparable refuses records whose host fingerprints or run settings
// differ; the seed and the source digest may differ.
func comparable(a, b record) error {
	if d := hostDiff(a.Fingerprint, b.Fingerprint); d != "" {
		return errors.New("host fingerprints differ: " + d)
	}
	if a.Workload != b.Workload || a.Seconds != b.Seconds || a.Trace != b.Trace {
		return fmt.Errorf("runs differ: %s/%gs/trace=%v vs %s/%gs/trace=%v",
			a.Workload, a.Seconds, a.Trace, b.Workload, b.Seconds, b.Trace)
	}
	return nil
}
