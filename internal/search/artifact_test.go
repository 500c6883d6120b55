package search

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
	"casoffinder/internal/pipeline"
)

// artifactAssembly round-trips asm through the persistent artifact codec —
// build, write, O(header) load — and returns the artifact-backed assembly,
// so every test below runs against bytes that actually crossed the disk
// format.
func artifactAssembly(t *testing.T, asm *genome.Assembly, pattern string) *genome.Assembly {
	t.Helper()
	art, err := BuildArtifact(asm, pattern)
	if err != nil {
		t.Fatalf("BuildArtifact: %v", err)
	}
	path := filepath.Join(t.TempDir(), "asm.cart")
	if err := art.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	loaded, err := genome.LoadArtifact(path)
	if err != nil {
		t.Fatalf("LoadArtifact: %v", err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return loaded.Assembly()
}

// TestArtifactEquivalenceAllEngines pins the tentpole contract: an
// artifact-backed run is byte-identical to a FASTA-backed run on every
// engine — with PAM shards for the request's scaffold (the shard fast
// path), with shards for a different scaffold (resident views, prefilter
// recomputed) and with no shards at all.
func TestArtifactEquivalenceAllEngines(t *testing.T) {
	asm := testAssembly(t, 11, []int{3000, 1700, 950}, testSite)
	req := testRequest(2)
	req.Queries = append(req.Queries, Query{Guide: "GATTACAGTANN", MaxMismatches: 1})

	engines := []struct {
		name string
		eng  Engine
	}{
		{"cpu", &CPU{Workers: 2}},
		{"indexed", &Indexed{Workers: 2}},
		{"opencl", &SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(2)), Variant: kernels.Base}},
		{"sycl", &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(2)), Variant: kernels.Opt3, WorkGroupSize: 64}},
		{"multisycl", &MultiSYCL{Devices: []*gpu.Device{gpu.New(device.MI60()), gpu.New(device.MI100())}, Variant: kernels.Base, WorkGroupSize: 64}},
	}
	arts := []struct {
		name string
		asm  *genome.Assembly
	}{
		{"pam-shards", artifactAssembly(t, asm, req.Pattern)},
		{"other-pattern", artifactAssembly(t, asm, "NNNNNNNNNNCC")},
		{"no-shards", artifactAssembly(t, asm, "")},
	}
	for _, e := range engines {
		want, err := e.eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s on FASTA assembly: %v", e.name, err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: fixture produced no hits", e.name)
		}
		for _, a := range arts {
			got, err := e.eng.Run(a.asm, req)
			if err != nil {
				t.Fatalf("%s on %s artifact: %v", e.name, a.name, err)
			}
			if !equalHits(got, want) {
				t.Errorf("%s on %s artifact: %d hits diverge from FASTA's %d", e.name, a.name, len(got), len(want))
			}
		}
	}
}

// TestArtifactShardMatchesScan pins the per-chunk identity the shard fast
// path rests on: the precomputed shard sliced to a chunk window equals a
// fresh SWAR prefilter over that chunk, candidate for candidate.
func TestArtifactShardMatchesScan(t *testing.T) {
	for _, seed := range []int64{5, 21} {
		asm := testAssembly(t, seed, []int{2000, 1100}, testSite)
		art, err := BuildArtifact(asm, testPattern)
		if err != nil {
			t.Fatal(err)
		}
		pair, err := kernels.NewPatternPair([]byte(testPattern))
		if err != nil {
			t.Fatal(err)
		}
		bp := CompileBitPattern(pair)
		chunker := &genome.Chunker{ChunkBytes: 300, PatternLen: pair.PatternLen}
		chunks := 0
		err = chunker.Each(asm, func(ch *genome.Chunk) error {
			chunks++
			var scan, shard scanScratch
			p, err := genome.Pack(ch.Data)
			if err != nil {
				return err
			}
			scan.findSWARCandidates(ch, p.WordView(nil), bp, 0)
			if err := shard.candidatesFromShard(ch, art.PAMRange(ch.SeqIndex, ch.Start, ch.Start+ch.Body)); err != nil {
				return err
			}
			if len(scan.cand) != len(shard.cand) {
				t.Fatalf("seed %d chunk %s:%d: scan %d candidates, shard %d", seed, ch.SeqName, ch.Start, len(scan.cand), len(shard.cand))
			}
			for i := range scan.cand {
				if scan.cand[i] != shard.cand[i] {
					t.Fatalf("seed %d chunk %s:%d candidate %d: scan %+v, shard %+v", seed, ch.SeqName, ch.Start, i, scan.cand[i], shard.cand[i])
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if chunks < 4 {
			t.Fatalf("seed %d: only %d chunks", seed, chunks)
		}
	}
}

// badShardAssembly builds an artifact whose shard carries one hostile entry
// (the codec cannot produce it; a bit flip in a stored shard can).
func badShardAssembly(t *testing.T, asm *genome.Assembly, pattern string, plen int, entry uint64) *genome.Assembly {
	t.Helper()
	art, err := genome.BuildArtifact(asm, pattern, plen, func(si int, v *genome.WordView) []uint64 {
		if si == 0 {
			return []uint64{entry}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return art.Assembly()
}

// TestArtifactCorruptShardRejected: shard entries that violate the chunk or
// sequence geometry must reject the run with a corruption-classed error —
// never a panic, never a silent wrong answer.
func TestArtifactCorruptShardRejected(t *testing.T) {
	asm := testAssembly(t, 7, []int{900}, testSite)
	req := testRequest(2)
	plen := len(testPattern)

	isCorruption := func(err error) bool {
		var fe *fault.Error
		return errors.As(err, &fe) && fe.Class == fault.Corruption && fe.Site == fault.SiteArtifact
	}

	// Strand bits zeroed: selected by every consumer, impossible by
	// construction.
	zeroStrand := badShardAssembly(t, asm, req.Pattern, plen, 5<<2)
	if _, err := (&CPU{}).Run(zeroStrand, req); !isCorruption(err) {
		t.Errorf("CPU on zero-strand shard: err = %v, want artifact corruption", err)
	}
	if _, err := (&Indexed{}).Run(zeroStrand, req); !isCorruption(err) {
		t.Errorf("Indexed on zero-strand shard: err = %v, want artifact corruption", err)
	}

	// A position whose window overruns the sequence end: the per-sequence
	// consumer must bounds-check before slicing.
	overrun := badShardAssembly(t, asm, req.Pattern, plen, uint64(900-1)<<2|genome.PAMFwd)
	if _, err := (&Indexed{}).Run(overrun, req); !isCorruption(err) {
		t.Errorf("Indexed on overrun shard: err = %v, want artifact corruption", err)
	}
}

// TestArtifactFaultFailover: a seeded fault run over an artifact-backed
// assembly still matches the clean FASTA run — the CPU failover backend
// consumes the same resident artifact through the plan seam.
func TestArtifactFaultFailover(t *testing.T) {
	asm := testAssembly(t, 13, []int{2200}, testSite)
	req := testRequest(2)
	want, err := (&CPU{}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("fixture produced no hits")
	}
	dev := gpu.New(device.MI100(), gpu.WithWorkers(2))
	dev.SetFaults(fault.NewInjector(fault.Plan{Seed: 3, Rate: 0.2}))
	eng := &SimSYCL{
		Device: dev, Variant: kernels.Base, WorkGroupSize: 64,
		// The watchdog is part of the policy: an injected gpu.hang would
		// otherwise block the run forever.
		Resilience: &pipeline.Resilience{Seed: 3, Watchdog: 500 * time.Millisecond},
	}
	got, err := eng.Run(artifactAssembly(t, asm, req.Pattern), req)
	if err != nil {
		t.Fatalf("seeded fault run: %v", err)
	}
	if !equalHits(got, want) {
		t.Errorf("artifact-backed fault run diverged: %d hits vs %d", len(got), len(want))
	}
}

// TestBuildArtifactBadPattern: an uncompilable scaffold fails the build.
func TestBuildArtifactBadPattern(t *testing.T) {
	asm := testAssembly(t, 1, []int{200}, testSite)
	if _, err := BuildArtifact(asm, "NN!!NN"); err == nil {
		t.Error("BuildArtifact(bad pattern) = nil error")
	}
}
