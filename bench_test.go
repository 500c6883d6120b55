// Package casoffinder_bench holds the top-level benchmark harness: one
// benchmark per table and figure of the paper's evaluation (§IV), plus
// micro-benchmarks for the hot paths of the library. Regenerate every
// artifact with:
//
//	go test -bench=. -benchmem
//
// or print the rendered tables with cmd/benchtab. The per-table benchmarks
// report the projected full-assembly times as custom metrics (sec/cell) so
// the paper's numbers and the reproduction's sit side by side in
// EXPERIMENTS.md.
package casoffinder_bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"casoffinder/internal/baseline"
	"casoffinder/internal/bench"
	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/isa"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
	"casoffinder/internal/tune"
)

// benchScale keeps each measurement fast; all reproduced quantities are
// ratios and stable across scales.
const benchScale = 1 << 16

// BenchmarkTable1 regenerates the programming-steps contrast of Table I.
func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = bench.RenderTable1()
	}
	if !strings.Contains(out, "OpenCL (13) vs SYCL (8)") {
		b.Fatal("Table I content wrong")
	}
}

// BenchmarkTable7 regenerates the device-specification table.
func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if bench.RenderTable7() == "" {
			b.Fatal("empty Table VII")
		}
	}
}

// BenchmarkTable8 regenerates Table VIII: elapsed OpenCL vs SYCL time on
// all three devices and both datasets. The projected seconds per cell are
// reported as metrics.
func BenchmarkTable8(b *testing.B) {
	var rows []bench.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.OpenCL, fmt.Sprintf("s_ocl_%s_%s", r.Dataset, r.Device))
		b.ReportMetric(r.SYCL, fmt.Sprintf("s_sycl_%s_%s", r.Dataset, r.Device))
	}
}

// BenchmarkTable9 regenerates Table IX: base vs optimized SYCL elapsed
// time.
func BenchmarkTable9(b *testing.B) {
	var rows []bench.Table9Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Table9(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup(), fmt.Sprintf("speedup_%s_%s", r.Dataset, r.Device))
	}
}

// BenchmarkTable10 regenerates the ISA metrics of Table X by compiling all
// comparer variants.
func BenchmarkTable10(b *testing.B) {
	var rows []isa.Metrics
	for i := 0; i < b.N; i++ {
		rows = isa.TableX(device.MI100(), len(bench.ExamplePattern))
	}
	for _, m := range rows {
		b.ReportMetric(float64(m.CodeBytes), "code_bytes_"+m.Variant.String())
		b.ReportMetric(float64(m.Occupancy), "occupancy_"+m.Variant.String())
	}
}

// BenchmarkFig2 regenerates the optimization staircase of Fig. 2 (comparer
// kernel time per variant, per device, per dataset).
func BenchmarkFig2(b *testing.B) {
	var points []bench.Fig2Point
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig2(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		b.ReportMetric(p.Seconds, fmt.Sprintf("s_%s_%s_%s", p.Dataset, p.Device, p.Variant))
	}
}

// --- Micro-benchmarks for the library hot paths ---

func benchAssembly(b *testing.B, bases int) *genome.Assembly {
	b.Helper()
	asm, err := genome.Generate(genome.HG38Like(bases))
	if err != nil {
		b.Fatal(err)
	}
	return asm
}

func benchRequest() *search.Request {
	return &search.Request{
		Pattern: bench.ExamplePattern,
		Queries: []search.Query{
			{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 5},
		},
	}
}

// BenchmarkCPUEngine measures the production engine's genome throughput.
func BenchmarkCPUEngine(b *testing.B) {
	asm := benchAssembly(b, 1<<21)
	req := benchRequest()
	eng := &search.CPU{}
	b.SetBytes(asm.TotalLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(asm, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSYCLEngine measures the simulator-backed SYCL engine.
func BenchmarkSimSYCLEngine(b *testing.B) {
	asm := benchAssembly(b, 1<<18)
	req := benchRequest()
	eng := &search.SimSYCL{Device: gpu.New(device.MI100()), Variant: kernels.Base}
	b.SetBytes(asm.TotalLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(asm, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparerVariants measures the functional cost of each comparer
// variant on the simulator (their real-device costs differ through the
// timing model; their simulation costs are near-identical by design).
func BenchmarkComparerVariants(b *testing.B) {
	asm := benchAssembly(b, 1<<17)
	req := benchRequest()
	for _, v := range kernels.Variants() {
		b.Run(v.String(), func(b *testing.B) {
			eng := &search.SimSYCL{Device: gpu.New(device.MI60()), Variant: v}
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(asm, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineScan measures the naive reference scan.
func BenchmarkBaselineScan(b *testing.B) {
	asm := benchAssembly(b, 1<<20)
	seq := genome.Upper(asm.Sequences[0].Data)
	b.SetBytes(int64(len(seq)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.Search(seq, []byte(bench.ExamplePattern), []byte("GGCCGACCTGTCGCTGACGCNNN"), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIUPACMatch measures the degenerate-base comparison.
func BenchmarkIUPACMatch(b *testing.B) {
	codes := []byte("ACGTRYSWKMBDHVN")
	bases := []byte("ACGT")
	var sink bool
	for i := 0; i < b.N; i++ {
		sink = genome.Matches(codes[i%len(codes)], bases[i%len(bases)])
	}
	_ = sink
}

// BenchmarkPack measures the 2-bit codec.
func BenchmarkPack(b *testing.B) {
	asm := benchAssembly(b, 1<<20)
	data := asm.Sequences[0].Data
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := genome.Pack(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChunker measures chunk planning over a whole assembly.
func BenchmarkChunker(b *testing.B) {
	asm := benchAssembly(b, 1<<22)
	c := &genome.Chunker{ChunkBytes: 1 << 16, PatternLen: 23}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Plan(asm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkISACompile measures compiling one comparer variant to the
// pseudo-ISA.
func BenchmarkISACompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := isa.CompileComparer(kernels.Opt3)
		if p.CodeBytes() == 0 {
			b.Fatal("empty program")
		}
	}
}

// BenchmarkSimLaunch measures the raw simulator's launch overhead: an
// empty kernel over 64k items.
func BenchmarkSimLaunch(b *testing.B) {
	dev := gpu.New(device.MI60())
	for i := 0; i < b.N; i++ {
		_, err := dev.Launch(gpu.LaunchSpec{
			Name:   "nop",
			Global: gpu.R1(1 << 16),
			Local:  gpu.R1(256),
			Kernel: func(g *gpu.Group) gpu.WorkItemFunc { return func(it *gpu.Item) {} },
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLaunchOverhead isolates the scheduler cost of one kernel launch:
// an empty kernel and a tiny barrier kernel, each under the legacy
// goroutine-per-item contract and under the cooperative contract
// (BarrierFree for the empty kernel, phase-split for the barrier kernel).
// The ratio between the legacy and cooperative rows is the launch-overhead
// reduction the cooperative scheduler buys.
func BenchmarkLaunchOverhead(b *testing.B) {
	dev := gpu.New(device.MI60())
	const global, local = 1 << 14, 64
	launch := func(b *testing.B, spec gpu.LaunchSpec) {
		b.Helper()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := dev.Launch(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	nop := func(g *gpu.Group) gpu.WorkItemFunc { return func(it *gpu.Item) {} }
	b.Run("empty/legacy", func(b *testing.B) {
		launch(b, gpu.LaunchSpec{Name: "nop", Global: gpu.R1(global), Local: gpu.R1(local), Kernel: nop})
	})
	b.Run("empty/coop", func(b *testing.B) {
		launch(b, gpu.LaunchSpec{Name: "nop", Global: gpu.R1(global), Local: gpu.R1(local), Kernel: nop, BarrierFree: true})
	})
	barrierKernel := func(g *gpu.Group) gpu.WorkItemFunc {
		shared := make([]int32, local)
		return func(it *gpu.Item) {
			if it.LocalID(0) == 0 {
				shared[0] = int32(it.GroupID(0))
			}
			it.Barrier()
			_ = shared[0]
		}
	}
	b.Run("barrier/legacy", func(b *testing.B) {
		launch(b, gpu.LaunchSpec{Name: "tiny", Global: gpu.R1(global), Local: gpu.R1(local), Kernel: barrierKernel})
	})
	b.Run("barrier/coop", func(b *testing.B) {
		launch(b, gpu.LaunchSpec{
			Name: "tiny", Global: gpu.R1(global), Local: gpu.R1(local),
			Phases: func(g *gpu.Group) []gpu.WorkItemFunc {
				shared := make([]int32, local)
				return []gpu.WorkItemFunc{
					func(it *gpu.Item) {
						if it.LocalID(0) == 0 {
							shared[0] = int32(it.GroupID(0))
						}
					},
					func(it *gpu.Item) { _ = shared[0] },
				}
			},
		})
	})
}

// BenchmarkStreamVsRun compares the collect-then-sort path against the
// streaming path on a multi-chunk search: the pipeline's double-buffered
// staging must make streaming no slower than batch collection.
func BenchmarkStreamVsRun(b *testing.B) {
	cases := []struct {
		name  string
		eng   search.Engine
		bases int
	}{
		{"cpu", &search.CPU{}, 1 << 21},
		{"sycl", &search.SimSYCL{Device: gpu.New(device.MI100()), Variant: kernels.Base}, 1 << 18},
	}
	for _, c := range cases {
		asm := benchAssembly(b, c.bases)
		req := benchRequest()
		req.ChunkBytes = 1 << 16 // many chunks, so staging overlap matters
		b.Run(c.name+"/run", func(b *testing.B) {
			b.SetBytes(asm.TotalLen())
			for i := 0; i < b.N; i++ {
				if _, err := c.eng.Run(asm, req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/stream", func(b *testing.B) {
			b.SetBytes(asm.TotalLen())
			var sink int
			for i := 0; i < b.N; i++ {
				err := c.eng.Stream(context.Background(), asm, req, func(search.Hit) error {
					sink++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			_ = sink
		})
	}
}

// BenchmarkSWARMismatch times the word-parallel mismatch kernel over every
// window of a 64 KiB sequence, with the limit at the pattern length so every
// window counts all positions (a realistic threshold would exit early and
// measure candidate sparsity, not the kernel). The SWAR core touches one
// word per 32 bases instead of one lookup per base.
func BenchmarkSWARMismatch(b *testing.B) {
	asm := benchAssembly(b, 1<<16)
	seq := asm.Sequences[0].Data
	pair, err := kernels.NewPatternPair([]byte("GGCCGACCTGTCGCTGACGCNNN"))
	if err != nil {
		b.Fatal(err)
	}
	bp := search.CompileBitPattern(pair)
	packed, err := genome.Pack(seq)
	if err != nil {
		b.Fatal(err)
	}
	view := packed.WordView(nil)
	plen := bp.PatternLen()
	limit := plen
	b.SetBytes(int64(len(seq) - plen + 1))
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		for pos := 0; pos+plen <= len(seq); pos++ {
			mm, _ := bp.Mismatches(view, pos, 0, limit)
			sink += mm
		}
	}
	_ = sink
}

// BenchmarkMultiPatternBatch measures the batched multi-pattern scan: one
// genome pass testing all eight guides at each staged candidate window
// against eight independent single-guide passes. The batch amortises chunk
// staging, packing and candidate finding across the guide set.
func BenchmarkMultiPatternBatch(b *testing.B) {
	asm := benchAssembly(b, 1<<20)
	guides := []string{
		"GGCCGACCTGTCGCTGACGCNNN",
		"CGCCAGCGTCAGCGACAGGTNNN",
		"TACGATTACAGGCTGCATCANNN",
		"ATTGCCGGAATCGATCCGTANNN",
		"GGGCTATCCGGAATTCAGCGNNN",
		"CCATTAGGCTTACGGATCGANNN",
		"TTGACCGGTAAGCTAGCTCCNNN",
		"AACGGTCCTAGGATCCTGTTNNN",
	}
	req := &search.Request{Pattern: bench.ExamplePattern}
	for _, g := range guides {
		req.Queries = append(req.Queries, search.Query{Guide: g, MaxMismatches: 4})
	}
	eng := &search.CPU{}
	b.Run("batched", func(b *testing.B) {
		b.SetBytes(asm.TotalLen())
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(asm, req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("independent", func(b *testing.B) {
		b.SetBytes(asm.TotalLen())
		for i := 0; i < b.N; i++ {
			for _, q := range req.Queries {
				sub := &search.Request{Pattern: req.Pattern, Queries: []search.Query{q}}
				if _, err := eng.Run(asm, sub); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIndexedVsScan compares the seed-and-extend engine against the
// plain scan — the related-work claim [20] that an index-based CPU tool
// runs orders of magnitude faster than position-by-position scanning.
func BenchmarkIndexedVsScan(b *testing.B) {
	asm := benchAssembly(b, 1<<22)
	req := &search.Request{
		Pattern: bench.ExamplePattern,
		Queries: []search.Query{
			{Guide: "GGCCGACCTGTCGCTGACGCNNN", MaxMismatches: 2},
			{Guide: "CGCCAGCGTCAGCGACAGGTNNN", MaxMismatches: 2},
		},
	}
	for _, eng := range []search.Engine{&search.CPU{}, &search.Indexed{}} {
		b.Run(eng.Name(), func(b *testing.B) {
			b.SetBytes(asm.TotalLen())
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(asm, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObsOverhead measures the observability layer's cost on the
// multi-chunk streaming search: "off" is the production configuration (nil
// tracer and registry — the contract is that this row stays within noise of
// BenchmarkStreamVsRun's cpu/stream), "traced" records every span and
// counter. The off row rides the bench-compare gate through BENCH_obs.json.
func BenchmarkObsOverhead(b *testing.B) {
	asm := benchAssembly(b, 1<<21)
	req := benchRequest()
	req.ChunkBytes = 1 << 16
	stream := func(b *testing.B, eng *search.CPU) {
		b.Helper()
		b.SetBytes(asm.TotalLen())
		var sink int
		for i := 0; i < b.N; i++ {
			err := eng.Stream(context.Background(), asm, req, func(search.Hit) error {
				sink++
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		_ = sink
	}
	b.Run("off", func(b *testing.B) {
		stream(b, &search.CPU{})
	})
	b.Run("traced", func(b *testing.B) {
		stream(b, &search.CPU{Trace: obs.NewTracer(), Metrics: obs.NewMetrics()})
	})
}

// BenchmarkWorkStealing pits the work-stealing scheduler against the static
// cost-model split on a multi-device fleet. Three fleets: homogeneous
// (3x MI100), heterogeneous (the paper's Table VII trio), and the
// heterogeneous fleet with a straggler — the fastest device hangs on every
// kernel launch and only the watchdog reaps it. The static split pays the
// watchdog deadline for every chunk in the straggler's shard, serially; the
// stealing scheduler pays it once, evicts the device, and redistributes the
// shard — the steal/static ratio on the straggler rows is the headline
// speedup. Fresh devices per iteration so injector state never carries over.
func BenchmarkWorkStealing(b *testing.B) {
	asm := benchAssembly(b, 1<<18)
	req := benchRequest()
	req.ChunkBytes = 1 << 13 // many chunks, so the schedule matters

	homogeneous := func() []*gpu.Device {
		return []*gpu.Device{
			gpu.New(device.MI100(), gpu.WithWorkers(2)),
			gpu.New(device.MI100(), gpu.WithWorkers(2)),
			gpu.New(device.MI100(), gpu.WithWorkers(2)),
		}
	}
	heterogeneous := func() []*gpu.Device {
		return []*gpu.Device{
			gpu.New(device.RadeonVII(), gpu.WithWorkers(2)),
			gpu.New(device.MI60(), gpu.WithWorkers(2)),
			gpu.New(device.MI100(), gpu.WithWorkers(2)),
		}
	}
	straggler := func() []*gpu.Device {
		devs := heterogeneous()
		// The MI100 draws the largest shard from the cost model, then hangs
		// on every launch — the worst case for a static assignment.
		devs[2].SetFaults(fault.NewInjector(fault.Plan{Seed: 1, Rate: 1, Site: fault.SiteHang}))
		return devs
	}
	watchdog := func() *pipeline.Resilience {
		return &pipeline.Resilience{Watchdog: 15 * time.Millisecond, MaxRetries: -1, Seed: 1}
	}

	cases := []struct {
		name  string
		fleet func() []*gpu.Device
		res   func() *pipeline.Resilience
	}{
		{"homogeneous", homogeneous, nil},
		{"heterogeneous", heterogeneous, nil},
		{"straggler", straggler, watchdog},
	}
	for _, c := range cases {
		for _, static := range []bool{true, false} {
			mode := "steal"
			if static {
				mode = "static"
			}
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				b.SetBytes(asm.TotalLen())
				for i := 0; i < b.N; i++ {
					eng := &search.MultiSYCL{Devices: c.fleet(), Variant: kernels.Base, Static: static}
					if c.res != nil {
						eng.Resilience = c.res()
					}
					if _, err := eng.Run(asm, req); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkColdStart measures time-to-first-hit from cold storage: parse a
// genome directory versus load the persistent artifact, then stream the
// packed CPU engine until the first hit lands. The FASTA row pays a full
// parse plus scan-time packing and prefiltering; the artifact row pays an
// O(header) checksummed read and consumes the resident word views and the
// precomputed PAM shards. The artifact row rides the bench-compare gate
// through BENCH_artifact.json, and make coldcheck asserts the >=10x ratio.
func BenchmarkColdStart(b *testing.B) {
	fastaDir, artPath, req := coldStartFixture(b, 1<<22)
	b.Run("fasta", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := genome.LoadDir(fastaDir)
			if err != nil {
				b.Fatal(err)
			}
			coldFirstHit(b, loaded, req)
		}
	})
	b.Run("artifact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			loaded, err := genome.LoadArtifact(artPath)
			if err != nil {
				b.Fatal(err)
			}
			coldFirstHit(b, loaded.Assembly(), req)
			if err := loaded.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNilObs pins the disabled fast path at the call level: a span and
// a counter emission against nil receivers must stay a pointer check —
// no allocation, no lock, no map touch.
func BenchmarkNilObs(b *testing.B) {
	var tr *obs.Tracer
	var m *obs.Metrics
	b.ReportAllocs()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tr.Complete("track", "stage", i, start, 0)
		tr.Instant("track", "retry", i)
		m.Count(obs.MetricChunks, 1)
		m.Observe(obs.MetricStageSeconds, 0.001)
		m.GaugeAdd(obs.MetricQueueOccupancy, 1)
	}
}

// BenchmarkAutotune runs the SYCL engine at the tuner's per-device selection
// against the best and worst fixed (variant, work-group size) pairs the cost
// model can name (via tune.Predict): the tuned row must track the best-fixed
// row — it launches the same kernel plus one memoized Select — and the
// worst-fixed row documents what a bad hand pick costs. The model's own
// ms/chunk prediction rides along as a custom metric so the snapshot keeps
// the tuned-vs-fixed ablation numbers.
func BenchmarkAutotune(b *testing.B) {
	asm := benchAssembly(b, 1<<17)
	req := benchRequest()
	req.ChunkBytes = 1 << 15
	run := func(b *testing.B, eng *search.SimSYCL) {
		b.SetBytes(asm.TotalLen())
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(asm, req); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, spec := range device.All() {
		cfg := tune.Config{Spec: spec, PatternLen: len(req.Pattern), Queries: len(req.Queries), ChunkBytes: req.ChunkBytes}
		d, err := tune.Select(cfg)
		if err != nil {
			b.Fatal(err)
		}
		worst := d.Candidates[len(d.Candidates)-1]
		b.Run(spec.Name+"/tuned", func(b *testing.B) {
			b.ReportMetric(d.Predicted*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Auto: true})
		})
		b.Run(spec.Name+"/best-fixed", func(b *testing.B) {
			b.ReportMetric(tune.Predict(cfg, d.Variant, d.WGSize)*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Variant: d.Variant, WorkGroupSize: d.WGSize})
		})
		b.Run(spec.Name+"/worst-fixed", func(b *testing.B) {
			b.ReportMetric(worst.Predicted*1e3, "pred-ms/chunk")
			run(b, &search.SimSYCL{Device: gpu.New(spec, gpu.WithWorkers(2)), Variant: worst.Variant, WorkGroupSize: worst.WGSize})
		})
	}
}

// TestAutotuneWithinBestFixed is the autotuner's acceptance gate at the
// repository root: on every Table VII device the selected (variant,
// work-group size) must score within 5% of the best fixed pair under the
// same model — exact for the model pass by construction (argmin), and the
// calibrated counterpart is gated in internal/tune.
func TestAutotuneWithinBestFixed(t *testing.T) {
	req := benchRequest()
	for _, spec := range device.All() {
		cfg := tune.Config{Spec: spec, PatternLen: len(req.Pattern), Queries: len(req.Queries)}
		d, err := tune.Select(cfg)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		var bestV kernels.ComparerVariant
		var bestWG int
		for _, v := range kernels.AllVariants() {
			for _, wg := range tune.DefaultWGSizes() {
				if p := tune.Predict(cfg, v, wg); p > 0 && p < best {
					best, bestV, bestWG = p, v, wg
				}
			}
		}
		got := tune.Predict(cfg, d.Variant, d.WGSize)
		if got > best*1.05 {
			t.Errorf("%s: tuned (%s, %d) predicts %.6gs, best fixed (%s, %d) %.6gs — beyond the 5%% gate",
				spec.Name, d.Variant, d.WGSize, got, bestV, bestWG, best)
		}
	}
}
