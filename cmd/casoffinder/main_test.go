package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/pipeline"
)

// writeTestData creates a genome directory with a planted site and an
// input file referring to it.
func writeTestData(t *testing.T, patternLine string) (inputPath string) {
	t.Helper()
	dir := t.TempDir()
	genomeDir := filepath.Join(dir, "chrs")
	if err := os.MkdirAll(genomeDir, 0o755); err != nil {
		t.Fatal(err)
	}
	// chr1 carries a perfect GATTACAGTA+CGG site at position 4.
	fasta := ">chr1\nTTTTGATTACAGTACGGTTTTTTTTTTTTTTT\n"
	if err := os.WriteFile(filepath.Join(genomeDir, "chr1.fa"), []byte(fasta), 0o644); err != nil {
		t.Fatal(err)
	}
	input := genomeDir + "\n" + patternLine + "\nGATTACAGTANNN 1\n"
	inputPath = filepath.Join(dir, "input.txt")
	if err := os.WriteFile(inputPath, []byte(input), 0o644); err != nil {
		t.Fatal(err)
	}
	return inputPath
}

func TestRunCPUEngine(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	if err := run([]string{"-engine", "cpu", input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "sites reported") {
		t.Errorf("stderr missing summary: %s", errOut.String())
	}
}

func TestRunSimEnginesWithProfile(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	for _, engine := range []string{"opencl", "sycl"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-engine", engine, "-device", "RVII", "-variant", "base", input}, &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		if !strings.Contains(out.String(), "chr1\t4\t") {
			t.Errorf("%s: output missing the planted site:\n%s", engine, out.String())
		}
		if !strings.Contains(errOut.String(), "kernel") {
			t.Errorf("%s: no kernel profile on stderr: %s", engine, errOut.String())
		}
	}
}

func TestRunBulgeInput(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG 1 1")
	var out, errOut bytes.Buffer
	if err := run([]string{input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "none:0") {
		t.Errorf("bulge output missing annotated plain hit:\n%s", out.String())
	}
}

func TestRunOutputFile(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	outPath := filepath.Join(t.TempDir(), "hits.txt")
	var out, errOut bytes.Buffer
	if err := run([]string{"-o", outPath, input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "chr1") {
		t.Errorf("output file content: %q", data)
	}
	if out.Len() != 0 {
		t.Error("stdout should be empty when -o is used")
	}
}

// TestRunWorstCaseArena pins the ablation contract of -worst-case-arena:
// pinning the hit arenas to their worst-case size changes provisioning
// only, never the hit stream.
func TestRunWorstCaseArena(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var dyn, worst, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-variant", "base", input}, &dyn, &errOut); err != nil {
		t.Fatalf("dynamic run: %v", err)
	}
	if err := run([]string{"-engine", "sycl", "-variant", "base", "-worst-case-arena", input}, &worst, &errOut); err != nil {
		t.Fatalf("worst-case run: %v", err)
	}
	if dyn.String() != worst.String() {
		t.Errorf("-worst-case-arena changed the output:\n dynamic: %q\n worst:   %q", dyn.String(), worst.String())
	}
}

func TestRunErrors(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	tests := []struct {
		name string
		args []string
	}{
		{"no input", nil},
		{"two inputs", []string{input, input}},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.txt")}},
		{"bad engine", []string{"-engine", "cuda", input}},
		{"bad device", []string{"-engine", "sycl", "-device", "H100", input}},
		{"bad variant", []string{"-variant", "opt9", input}},
		{"worst-case arena without a simulator", []string{"-engine", "cpu", "-worst-case-arena", input}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := run(tt.args, &out, &errOut); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestExitCodes(t *testing.T) {
	tests := []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, exitOK},
		{"help", flag.ErrHelp, exitOK},
		{"runtime", errors.New("boom"), exitRuntime},
		{"usage", usageError{errors.New("bad flag")}, exitUsage},
		{"wrapped usage", errors.Join(errors.New("ctx"), usageError{errors.New("bad")}), exitUsage},
		{"partial", &pipeline.PartialError{Report: &pipeline.Report{Chunks: 4}}, exitPartial},
	}
	for _, tt := range tests {
		if got := exitCode(tt.err); got != tt.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tt.name, tt.err, got, tt.want)
		}
	}
}

func TestRunUsageErrorsExitUsage(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	tests := []struct {
		name string
		args []string
	}{
		{"no input", nil},
		{"bad flag", []string{"-no-such-flag", input}},
		{"bad engine", []string{"-engine", "cuda", input}},
		{"bad variant", []string{"-variant", "opt9", input}},
		{"bad device", []string{"-engine", "sycl", "-device", "H100", input}},
		{"bad fault site", []string{"-engine", "opencl", "-fault-rate", "0.5", "-fault-site", "gpu.meltdown", input}},
		{"fault rate out of range", []string{"-engine", "opencl", "-fault-rate", "1.5", input}},
		{"fault flags on cpu engine", []string{"-engine", "cpu", "-fault-rate", "0.5", input}},
		{"watchdog on indexed engine", []string{"-engine", "indexed", "-watchdog", "1s", input}},
		{"unknown fleet device", []string{"-engine", "sycl", "-devices", "mi60,h100", input}},
		{"empty fleet device", []string{"-engine", "sycl", "-devices", "mi60,,mi100", input}},
		{"fleet on cpu engine", []string{"-engine", "cpu", "-devices", "mi60", input}},
		{"fleet on opencl engine", []string{"-engine", "opencl", "-devices", "mi60,mi100", input}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(tt.args, &out, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
		})
	}
}

// TestRunFaultRecovery injects a certain failure (rate 1) at one site per
// sim engine and checks the run still reports the planted site — retries or
// the CPU failover keep the output identical to the fault-free run — while
// the degradation summary lands on stderr.
func TestRunFaultRecovery(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	tests := []struct {
		engine, site string
	}{
		{"opencl", "opencl.enqueue"},
		{"opencl", "gpu.readback"},
		{"sycl", "sycl.async"},
	}
	for _, tt := range tests {
		t.Run(tt.engine+"/"+tt.site, func(t *testing.T) {
			var golden, out, errOut bytes.Buffer
			if err := run([]string{"-engine", tt.engine, input}, &golden, &errOut); err != nil {
				t.Fatal(err)
			}
			errOut.Reset()
			err := run([]string{"-engine", tt.engine, "-fault-rate", "1",
				"-fault-seed", "42", "-fault-site", tt.site, input}, &out, &errOut)
			if err != nil {
				t.Fatalf("faulted run: %v (stderr: %s)", err, errOut.String())
			}
			if out.String() != golden.String() {
				t.Errorf("faulted output differs from golden:\n%s\nvs\n%s", out.String(), golden.String())
			}
			if !strings.Contains(errOut.String(), "degraded:") {
				t.Errorf("stderr missing degradation summary: %s", errOut.String())
			}
			if !strings.Contains(errOut.String(), "faults: "+tt.site+"=") {
				t.Errorf("stderr missing fault counts: %s", errOut.String())
			}
		})
	}
}

// TestRunFaultDeterminism replays the same plan twice: stdout and the fault
// summary must match byte for byte.
func TestRunFaultDeterminism(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	faultLine := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "faults:") {
				return line
			}
		}
		return ""
	}
	var out1, out2, err1, err2 bytes.Buffer
	// The watchdog keeps an injected gpu.hang from stalling the run; an
	// actual hang always overruns it, so the kill count stays deterministic.
	args := []string{"-engine", "sycl", "-fault-rate", "0.3", "-fault-seed", "7", "-watchdog", "2s", input}
	if err := run(args, &out1, &err1); err != nil {
		t.Fatalf("first run: %v (stderr: %s)", err, err1.String())
	}
	if err := run(args, &out2, &err2); err != nil {
		t.Fatalf("second run: %v (stderr: %s)", err, err2.String())
	}
	if out1.String() != out2.String() {
		t.Errorf("same seed produced different hits:\n%s\nvs\n%s", out1.String(), out2.String())
	}
	if f1, f2 := faultLine(err1.String()), faultLine(err2.String()); f1 != f2 {
		t.Errorf("same seed produced different fault schedules:\n%q\nvs\n%q", f1, f2)
	}
}

// TestRunFleet drives the -devices flag: a heterogeneous fleet behind the
// work-stealing scheduler must print the same hits as a single-device run
// and report the per-device schedule on stderr.
func TestRunFleet(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-device", "MI60", "-variant", "base", input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	err := run([]string{"-engine", "sycl", "-devices", "RadeonVII,mi60,MI100", "-variant", "base", input}, &out, &errOut)
	if err != nil {
		t.Fatalf("fleet run: %v (stderr: %s)", err, errOut.String())
	}
	if out.String() != golden.String() {
		t.Errorf("fleet output differs from single device:\n%s\nvs\n%s", out.String(), golden.String())
	}
	if !strings.Contains(errOut.String(), "scheduler: steals=") {
		t.Errorf("stderr missing scheduler summary: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "device sycl-sim[0]") {
		t.Errorf("stderr missing per-device breakdown: %s", errOut.String())
	}
}

// TestRunFleetEviction kills every fleet device with rate-1 launch faults:
// the whole fleet evicts, the stranded chunks drain through the CPU
// fallback, and the hits still match the clean run.
func TestRunFleetEviction(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-variant", "base", input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	err := run([]string{"-engine", "sycl", "-devices", "mi60,mi100", "-variant", "base",
		"-fault-rate", "1", "-fault-seed", "9", "-fault-site", "gpu.launch", "-max-retries", "-1", input}, &out, &errOut)
	if err != nil {
		t.Fatalf("eviction run: %v (stderr: %s)", err, errOut.String())
	}
	if out.String() != golden.String() {
		t.Errorf("eviction output differs from golden:\n%s\nvs\n%s", out.String(), golden.String())
	}
	if !strings.Contains(errOut.String(), "evictions=2") {
		t.Errorf("stderr missing eviction count: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "degraded:") {
		t.Errorf("stderr missing degradation summary: %s", errOut.String())
	}
	if !strings.Contains(errOut.String(), "faults: gpu.launch=") {
		t.Errorf("stderr missing fault counts: %s", errOut.String())
	}
}

func TestParseFleet(t *testing.T) {
	fleet, err := parseFleet("radeonvii, MI60 ,rvii,mi100")
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 4 {
		t.Fatalf("parseFleet returned %d specs, want 4", len(fleet))
	}
	if fleet[0].Name != fleet[2].Name {
		t.Errorf("radeonvii and rvii aliases disagree: %q vs %q", fleet[0].Name, fleet[2].Name)
	}
	if fleet, err := parseFleet(""); fleet != nil || err != nil {
		t.Errorf("empty flag = %v, %v; want nil, nil", fleet, err)
	}
	if _, err := parseFleet("mi60,vega64"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestParseVariant(t *testing.T) {
	v, auto, err := parseVariant("opt2")
	if err != nil || auto || v.String() != "opt2" {
		t.Errorf("parseVariant(opt2) = %v, %v, %v", v, auto, err)
	}
	if v, auto, err := parseVariant("bitparallel"); err != nil || auto || v.String() != "bitparallel" {
		t.Errorf("parseVariant(bitparallel) = %v, %v, %v", v, auto, err)
	}
	if _, auto, err := parseVariant("auto"); err != nil || !auto {
		t.Errorf("parseVariant(auto) = auto %v, %v; want the tuner", auto, err)
	}
	if _, _, err := parseVariant("fast"); err == nil {
		t.Error("unknown variant accepted")
	}
}

// TestRunPackedFlagRemoved: SWAR is the cpu engine's only scan, so there is
// no -packed flag; passing it is a usage error (exit 2) that writes no
// output, while the default run still finds the planted site.
func TestRunPackedFlagRemoved(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	err := run([]string{"-packed", input}, &out, &errOut)
	if got := exitCode(err); got != exitUsage {
		t.Fatalf("-packed: exitCode = %d, want %d (err: %v)", got, exitUsage, err)
	}
	if out.Len() != 0 {
		t.Errorf("-packed wrote output: %q", out.String())
	}
	if err := run([]string{input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("default output missing the planted site:\n%s", out.String())
	}
}

// TestRunAutoVariant: the default -variant auto resolves the tuner on the
// sim engines, reports the selection on stderr and emits the same hit lines
// as a forced variant.
func TestRunAutoVariant(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var forced, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-device", "MI60", "-variant", "base", input}, &forced, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"model", "calibrate"} {
		var out, errOut bytes.Buffer
		err := run([]string{"-engine", "sycl", "-device", "MI60", "-autotune", mode, input}, &out, &errOut)
		if err != nil {
			t.Fatalf("%s: %v (stderr: %s)", mode, err, errOut.String())
		}
		if out.String() != forced.String() {
			t.Errorf("%s: tuned output differs from forced-variant output:\n%s\nvs\n%s", mode, out.String(), forced.String())
		}
		if !strings.Contains(errOut.String(), "autotune: sycl-sim") {
			t.Errorf("%s: stderr missing the autotune summary: %s", mode, errOut.String())
		}
		wantMode := "model"
		if mode == "calibrate" {
			wantMode = "calibrated"
		}
		if !strings.Contains(errOut.String(), wantMode) {
			t.Errorf("%s: summary does not name the %s pass: %s", mode, wantMode, errOut.String())
		}
	}
}

// TestRunAutoVariantFleet: the multi-device scheduler under -variant auto
// reports one selection per fleet slot and keeps the golden stream.
func TestRunAutoVariantFleet(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{"-engine", "sycl", "-variant", "base", input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	errOut.Reset()
	if err := run([]string{"-engine", "sycl", "-devices", "radeonvii,mi100", input}, &out, &errOut); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if out.String() != golden.String() {
		t.Errorf("tuned fleet output differs from single-device golden:\n%s\nvs\n%s", out.String(), golden.String())
	}
	if !strings.Contains(errOut.String(), "autotune: sycl-sim[") {
		t.Errorf("stderr missing per-slot autotune summaries: %s", errOut.String())
	}
}

// TestRunAutotuneUsageErrors: calibration without the tuner, and unknown
// modes, are usage mistakes (exit 2), not runtime failures.
func TestRunAutotuneUsageErrors(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "sycl", "-variant", "base", "-autotune", "calibrate", input}, &out, &errOut)
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("-variant base -autotune calibrate: err %v (exit %d), want a usage error", err, exitCode(err))
	}
	err = run([]string{"-engine", "sycl", "-autotune", "turbo", input}, &out, &errOut)
	if err == nil || exitCode(err) != exitUsage {
		t.Errorf("-autotune turbo: err %v (exit %d), want a usage error", err, exitCode(err))
	}
}

func TestRunBitParallelSimVariant(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "opencl", "-variant", "bitparallel", input}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "comparer_bitparallel") {
		t.Errorf("profile should name the bitparallel comparer: %s", errOut.String())
	}
}

func TestRunProfileFlags(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	dir := t.TempDir()
	cpuPath := filepath.Join(dir, "cpu.pprof")
	memPath := filepath.Join(dir, "mem.pprof")
	var out, errOut bytes.Buffer
	if err := run([]string{"-cpuprofile", cpuPath, "-memprofile", memPath, input}, &out, &errOut); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpuPath, memPath} {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if info.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if err := run([]string{"-cpuprofile", filepath.Join(dir, "no", "dir.pprof"), input}, &out, &errOut); err == nil {
		t.Error("unwritable -cpuprofile path should fail")
	}
	if err := run([]string{"-memprofile", filepath.Join(dir, "no", "dir.pprof"), input}, &out, &errOut); err == nil {
		t.Error("unwritable -memprofile path should fail")
	}
}

// TestTraceMetricsSmoke is the tracecheck gate: a seeded fault run with
// -trace and -metrics must leave behind a parseable Chrome trace, Prometheus
// text, and a JSON snapshot whose counters agree with the profile block.
func TestTraceMetricsSmoke(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.prom")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "sycl", "-fault-rate", "0.3", "-fault-seed", "7",
		"-watchdog", "2s", "-trace", tracePath, "-metrics", metricsPath, input}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "chr1\t4\t") {
		t.Errorf("output missing the planted site:\n%s", out.String())
	}

	traceData, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traceData, &trace); err != nil {
		t.Fatalf("-trace output is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range trace.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"stage", "drain", "emit"} {
		if !names[want] {
			t.Errorf("trace missing %q spans; has %v", want, names)
		}
	}

	promData, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(promData), "# TYPE casoffinder_chunks_total counter") {
		t.Errorf("-metrics output missing Prometheus TYPE lines:\n%s", promData)
	}

	jsonData, err := os.ReadFile(metricsPath + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
		Profile struct {
			Chunks  int   `json:"Chunks"`
			Entries int64 `json:"Entries"`
		} `json:"profile"`
	}
	if err := json.Unmarshal(jsonData, &doc); err != nil {
		t.Fatalf("metrics JSON snapshot is not valid JSON: %v", err)
	}
	if doc.Profile.Chunks == 0 {
		t.Error("merged JSON snapshot has no profile block")
	}
	if got, want := doc.Metrics.Counters["casoffinder_chunks_total"], int64(doc.Profile.Chunks); got != want {
		t.Errorf("chunks counter %d disagrees with profile %d", got, want)
	}
	if got, want := doc.Metrics.Counters["casoffinder_entries_total"], doc.Profile.Entries; got != want {
		t.Errorf("entries counter %d disagrees with profile %d", got, want)
	}
}

// TestRunFormatJSON: -format json emits one NDJSON object per hit — the
// same encoding casoffinderd streams — carrying the same sites as the text
// run.
func TestRunFormatJSON(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var text, jsonOut, errOut bytes.Buffer
	if err := run([]string{input}, &text, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-format", "json", input}, &jsonOut, &errOut); err != nil {
		t.Fatal(err)
	}
	textLines := strings.Split(strings.TrimSuffix(text.String(), "\n"), "\n")
	jsonLines := strings.Split(strings.TrimSuffix(jsonOut.String(), "\n"), "\n")
	if len(jsonLines) != len(textLines) || len(jsonLines) == 0 {
		t.Fatalf("json run emitted %d lines, text run %d", len(jsonLines), len(textLines))
	}
	var hit struct {
		Guide      string `json:"guide"`
		Query      int    `json:"query"`
		Seq        string `json:"seq"`
		Pos        int    `json:"pos"`
		Dir        string `json:"dir"`
		Mismatches int    `json:"mismatches"`
		Site       string `json:"site"`
	}
	if err := json.Unmarshal([]byte(jsonLines[0]), &hit); err != nil {
		t.Fatalf("first line is not a hit object: %v\n%s", err, jsonLines[0])
	}
	if hit.Guide != "GATTACAGTANNN" || hit.Seq != "chr1" || hit.Pos != 4 || hit.Dir != "+" {
		t.Errorf("hit = %+v, want the planted chr1:4 site", hit)
	}
}

// TestRunFormatTimeoutUsageErrors: the new flags validate like every other.
func TestRunFormatTimeoutUsageErrors(t *testing.T) {
	plain := writeTestData(t, "NNNNNNNNNNNGG")
	bulged := writeTestData(t, "NNNNNNNNNNNGG 1 1")
	tests := []struct {
		name string
		args []string
	}{
		{"unknown format", []string{"-format", "xml", plain}},
		{"json with bulge", []string{"-format", "json", bulged}},
		{"timeout with bulge", []string{"-timeout", "1s", bulged}},
		{"negative timeout", []string{"-timeout", "-1s", plain}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			err := run(tt.args, &out, &errOut)
			if err == nil {
				t.Fatal("expected error")
			}
			if got := exitCode(err); got != exitUsage {
				t.Errorf("exitCode = %d, want %d (err: %v)", got, exitUsage, err)
			}
		})
	}
}

// TestRunTimeoutExpires pins the deadline path: a hung simulated kernel
// (rate-1 gpu.hang, no watchdog) blocks the run until -timeout cancels it;
// the error carries the client.deadline fault site and exits 1.
func TestRunTimeoutExpires(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var out, errOut bytes.Buffer
	err := run([]string{"-engine", "sycl", "-variant", "base",
		"-fault-rate", "1", "-fault-site", "gpu.hang",
		"-timeout", "200ms", input}, &out, &errOut)
	if err == nil {
		t.Fatal("hung run with -timeout returned no error")
	}
	if got := exitCode(err); got != exitRuntime {
		t.Errorf("exitCode = %d, want %d (err: %v)", got, exitRuntime, err)
	}
	if !strings.Contains(err.Error(), string(fault.SiteDeadline)) {
		t.Errorf("err = %v, want the %s fault site", err, fault.SiteDeadline)
	}
}

// TestRunTimeoutGenerous: a deadline the run comfortably makes changes
// nothing — same hits, exit 0.
func TestRunTimeoutGenerous(t *testing.T) {
	input := writeTestData(t, "NNNNNNNNNNNGG")
	var golden, out, errOut bytes.Buffer
	if err := run([]string{input}, &golden, &errOut); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-timeout", "1m", input}, &out, &errOut); err != nil {
		t.Fatalf("generous -timeout failed the run: %v", err)
	}
	if out.String() != golden.String() {
		t.Errorf("-timeout changed the output:\n%s\nvs\n%s", out.String(), golden.String())
	}
}
