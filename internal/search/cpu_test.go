package search

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"casoffinder/internal/genome"
	"casoffinder/internal/pipeline"
)

// TestScanInnerLoopZeroAllocs pins the zero-allocation property of the hot
// scan: once a worker's pooled scratch has grown, running Find, CompareAll
// and Drain over chunks that yield PAM candidates but no hits must not
// allocate at all.
func TestScanInnerLoopZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := make([]byte, 4096)
	for i := range data {
		data[i] = "ACGTacgt"[rng.Intn(8)]
	}
	asm := &genome.Assembly{Name: "alloc", Sequences: []*genome.Sequence{{Name: "s", Data: data}}}
	// A guide that cannot occur in the ACGT-random data at zero mismatches:
	// the scan reaches the compare at every NGG candidate but never appends.
	plan, err := pipeline.Compile(&Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: "CCCCCCCCCCNN", MaxMismatches: 0}},
		ChunkBytes: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := newCPUBackend(plan)
	// Pin the pool to one scratch: the race detector drops pooled items at
	// random, and the property under test is that a warm scratch is reused
	// without allocating, not that sync.Pool retains it.
	sc := new(scanScratch)
	b.scratch.New = func() any { return sc }
	staged := make([]pipeline.Staged, len(chunks))
	for i, ch := range chunks {
		if staged[i], err = b.Stage(ctx, ch); err != nil {
			t.Fatal(err)
		}
	}
	scan := func() (candidates int) {
		for _, st := range staged {
			n, err := b.Find(ctx, st)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.CompareAll(ctx, st); err != nil {
				t.Fatal(err)
			}
			hits, err := b.Drain(ctx, st, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(hits) != 0 {
				t.Fatalf("workload unexpectedly produced %d hits", len(hits))
			}
			candidates += n
		}
		return candidates
	}
	// Warm the pooled scratch on every chunk first.
	if scan() == 0 {
		t.Fatal("workload produced no PAM candidates; the test would not exercise the compare")
	}
	allocs := testing.AllocsPerRun(50, func() { scan() })
	if allocs != 0 {
		t.Errorf("scan allocated %.1f times per pass over %d chunks, want 0", allocs, len(chunks))
	}
}

// TestCompareMatchesCompareAll pins the single-guide Compare, which the
// pipeline never calls on the CPU backend because CompareAll exists: after
// Find, running Compare for each guide must produce exactly the entries the
// batched CompareAll produces on the same chunk.
func TestCompareMatchesCompareAll(t *testing.T) {
	asm := testAssembly(t, 12, []int{2000, 1500}, testSite)
	plan, err := pipeline.Compile(&Request{
		Pattern: testPattern,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 3},
			{Guide: "GATTTCAGTANN", MaxMismatches: 2},
			{Guide: "CCCCCCCCCCNN", MaxMismatches: 0},
		},
		ChunkBytes: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	chunks, err := plan.Chunker.Plan(asm)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	b := newCPUBackend(plan)
	entries := func(ch *genome.Chunk, batched bool) []rawHit {
		st, err := b.Stage(ctx, ch)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Release(st)
		if _, err := b.Find(ctx, st); err != nil {
			t.Fatal(err)
		}
		if batched {
			err = b.CompareAll(ctx, st)
		} else {
			for qi := range plan.Guides {
				if err = b.Compare(ctx, st, qi); err != nil {
					break
				}
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		got := append([]rawHit(nil), st.(*cpuStaged).sc.entries...)
		sort.Slice(got, func(i, j int) bool {
			a, b := got[i], got[j]
			if a.qi != b.qi {
				return a.qi < b.qi
			}
			if a.pos != b.pos {
				return a.pos < b.pos
			}
			return a.dir < b.dir
		})
		return got
	}
	total := 0
	for _, ch := range chunks {
		one, all := entries(ch, false), entries(ch, true)
		if !reflect.DeepEqual(one, all) {
			t.Fatalf("chunk %s:%d: Compare entries %v, CompareAll entries %v", ch.SeqName, ch.Start, one, all)
		}
		total += len(all)
	}
	if total == 0 {
		t.Fatal("workload produced no entries; the test would not exercise the compare")
	}
}

// TestCPURunStopsOnScanError checks the early-cancellation path: when a
// chunk scan fails, the failing worker returns and the dispatcher must stop
// handing out the remaining chunks instead of deadlocking on a channel no
// one reads. Packing is the only scan step that can fail (invalid bytes at
// pack time).
func TestCPURunStopsOnScanError(t *testing.T) {
	data := make([]byte, 8192)
	for i := range data {
		data[i] = 'A'
	}
	data[10] = '!' // invalid in every chunk 0 position: first scan fails
	asm := &genome.Assembly{Name: "bad", Sequences: []*genome.Sequence{{Name: "s", Data: data}}}
	req := &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: testGuide, MaxMismatches: 1}},
		ChunkBytes: 64, // many chunks, so a stuck dispatcher would hang
	}
	for _, workers := range []int{1, 4} {
		eng := &CPU{Workers: workers}
		_, err := eng.Run(asm, req)
		if err == nil {
			t.Fatalf("workers=%d: invalid chunk accepted", workers)
		}
		if !strings.Contains(err.Error(), "packing chunk") {
			t.Errorf("workers=%d: error = %v, want the pack failure", workers, err)
		}
	}
}
