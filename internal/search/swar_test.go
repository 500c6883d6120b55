package search

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestSWARPathsEquivalence: the CPU engine's batched SWAR scan returns
// exactly the scalar baseline's hits on randomized multi-sequence genomes
// with several guides and random chunk budgets.
func TestSWARPathsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{300 + rng.Intn(500), 40 + rng.Intn(100)}, testSite)
		req := &Request{
			Pattern: testPattern,
			Queries: []Query{
				{Guide: testGuide, MaxMismatches: rng.Intn(4)},
				{Guide: "GACCACAGTANN", MaxMismatches: rng.Intn(6)},
			},
			ChunkBytes: 100 + rng.Intn(400),
		}
		got, err := (&CPU{Workers: 2}).Run(asm, req)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if want := baselineHits(t, asm, req); !equalHits(got, want) {
			t.Logf("seed %d: SWAR scan diverged from the baseline (%d vs %d hits)", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestSWARFinderMatchesScalar: the 32-wide MatchLanes prefilter selects
// exactly the candidates (positions and strand bits) of a per-position
// byte-window scaffold test, including at chunk-body tails that are not a
// multiple of 32.
func TestSWARFinderMatchesScalar(t *testing.T) {
	pair, err := kernels.NewPatternPair([]byte(testPattern))
	if err != nil {
		t.Fatal(err)
	}
	bp := CompileBitPattern(pair)
	plen := pair.PatternLen
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{12, 40, 63, 64, 65, 200, 333} {
		data := make([]byte, n)
		alphabet := []byte("ACGTN")
		for i := range data {
			if rng.Intn(4) == 0 {
				data[i] = testSite[rng.Intn(len(testSite))]
			} else {
				data[i] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		body := n - plen + 1
		if body <= 0 {
			continue
		}
		var want []candidate
		for pos := 0; pos < body; pos++ {
			var strand uint8
			if windowMatches(data[pos:pos+plen], pair, 0) {
				strand |= strandFwd
			}
			if windowMatches(data[pos:pos+plen], pair, plen) {
				strand |= strandRev
			}
			if strand != 0 {
				want = append(want, candidate{pos: pos, strand: strand})
			}
		}
		ch := &genome.Chunk{SeqName: "s", Data: data, Body: body}
		packed, err := genome.Pack(data)
		if err != nil {
			t.Fatal(err)
		}
		var sc scanScratch
		sc.findSWARCandidates(ch, packed.WordView(nil), bp, 0)
		if len(sc.cand) != len(want) {
			t.Fatalf("n=%d: byte scan found %d candidates, SWAR %d", n, len(want), len(sc.cand))
		}
		for i := range want {
			if sc.cand[i] != want[i] {
				t.Fatalf("n=%d candidate %d: byte scan %+v, SWAR %+v", n, i, want[i], sc.cand[i])
			}
		}
	}
}

// TestBatchedMatchesPerPattern: for every engine, one multi-query run must
// equal the merge of per-query Stream passes — the batched multi-pattern
// scan cannot change any single pattern's hits.
func TestBatchedMatchesPerPattern(t *testing.T) {
	asm := testAssembly(t, 53, []int{700, 450, 90}, testSite)
	req := &Request{
		Pattern: testPattern,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 2},
			{Guide: "GACCACAGTANN", MaxMismatches: 4},
			{Guide: "TTTTACAGTANN", MaxMismatches: 3},
			{Guide: "GATTACAGTCNN", MaxMismatches: 1},
		},
		ChunkBytes: 300,
	}
	allEngines := append(streamEngines(t),
		&MultiSYCL{
			Devices: []*gpu.Device{gpu.New(device.MI60(), gpu.WithWorkers(2)), gpu.New(device.MI100(), gpu.WithWorkers(2))},
			Variant: kernels.Opt2,
		},
	)
	for _, eng := range allEngines {
		t.Run(eng.Name(), func(t *testing.T) {
			batched, err := eng.Run(asm, req)
			if err != nil {
				t.Fatal(err)
			}
			if len(batched) == 0 {
				t.Fatal("no hits; fixture too sparse")
			}
			var merged []Hit
			for qi, q := range req.Queries {
				sub := &Request{Pattern: req.Pattern, Queries: []Query{q}, ChunkBytes: req.ChunkBytes}
				err := eng.Stream(context.Background(), asm, sub, func(h Hit) error {
					h.QueryIndex = qi
					merged = append(merged, h)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			sortHits(merged)
			if !equalHits(batched, merged) {
				t.Errorf("multi-query run != merged per-query streams (%d vs %d hits)", len(batched), len(merged))
			}
		})
	}
}

// TestBitParallelSimEngines: both simulator frontends run the SWAR comparer
// variant end to end and agree exactly with the CPU engine — the same
// optimization modeled on the simulated device and executed on the host.
func TestBitParallelSimEngines(t *testing.T) {
	asm := testAssembly(t, 61, []int{700, 450, 90}, testSite)
	req := testRequest(2)
	want, err := (&CPU{Workers: 2}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no hits; fixture too sparse")
	}
	sims := []Engine{
		&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.BitParallel},
		&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.BitParallel, WorkGroupSize: 64},
	}
	for _, eng := range sims {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s with bitparallel comparer diverged (%d vs %d hits)", eng.Name(), len(got), len(want))
		}
	}
}

// FuzzSWARMismatch: on arbitrary IUPAC patterns and sequences the SWAR
// mismatch count and the byte-window count agree exactly, for every strand
// half and limit.
func FuzzSWARMismatch(f *testing.F) {
	f.Add([]byte("NNNNNNNNNNGG"), []byte("GATTACAGTAGGACGTACGTNNRYacgt"), 0)
	f.Add([]byte("GANNTTNRYNGG"), []byte("gattacagtaggACGTACGT"), 3)
	f.Add([]byte("NGG"), []byte("AGGTGGNGGRGG"), 1)
	f.Fuzz(func(t *testing.T, pattern, seq []byte, limit int) {
		pair, err := kernels.NewPatternPair(pattern)
		if err != nil {
			return
		}
		packed, err := genome.Pack(seq)
		if err != nil {
			return
		}
		plen := pair.PatternLen
		if len(seq) < plen {
			return
		}
		if limit < 0 {
			limit = -limit
		}
		limit %= plen + 2
		bp := CompileBitPattern(pair)
		v := packed.WordView(nil)
		upper := genome.Upper(seq)
		for pos := 0; pos+plen <= len(seq); pos++ {
			for _, offset := range []int{0, plen} {
				mm, ok := bp.Mismatches(v, pos, offset, limit)
				bmm, bok := countMismatches(upper[pos:pos+plen], pair, offset, limit)
				if ok != bok {
					t.Fatalf("pos %d offset %d: pass/fail diverges: SWAR %v, byte %v",
						pos, offset, ok, bok)
				}
				if ok {
					// Counts are exact only on the pass side; the rejecting
					// paths stop at different points past the limit (the
					// SWAR core counts a whole word at a time).
					if mm != bmm {
						t.Fatalf("pos %d offset %d: SWAR %d != byte %d mismatches",
							pos, offset, mm, bmm)
					}
				} else if mm <= limit {
					t.Fatalf("pos %d offset %d: rejected with mm %d <= limit %d", pos, offset, mm, limit)
				}
			}
		}
	})
}
