package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/search"
)

// prepared is a workload's genome on disk with the reference hits of its
// request.
type prepared struct {
	// path is the PAM-indexed artifact the engines load.
	path   string
	bases  int64
	chunks int
	// ref holds the reference hits in the sorted output order; refBusy is
	// the summed single-threaded time the reference scan took.
	ref     []search.Hit
	refBusy time.Duration
}

// prepare writes asm into dir as an artifact with a PAM index for req's
// pattern (the CLI's -index build) and computes req's reference hits from
// the artifact the engines will load. The caller may drop asm afterwards.
func prepare(dir string, asm *genome.Assembly, req *search.Request) (*prepared, error) {
	art, err := search.BuildArtifact(asm, req.Pattern)
	if err != nil {
		return nil, err
	}
	p := &prepared{path: filepath.Join(dir, "genome.cart"), bases: asm.TotalLen()}
	if err := os.WriteFile(p.path, art.Encode(), 0o644); err != nil {
		return nil, err
	}
	plan, err := pipeline.Compile(req)
	if err != nil {
		return nil, err
	}
	lens := make([]int, len(asm.Sequences))
	for i, s := range asm.Sequences {
		lens[i] = len(s.Data)
	}
	if p.chunks, err = plan.Chunker.CountChunks(lens); err != nil {
		return nil, err
	}
	loaded, err := genome.LoadArtifact(p.path)
	if err != nil {
		return nil, err
	}
	defer loaded.Close()
	if p.ref, p.refBusy, err = reference(loaded.Assembly(), req); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return p, nil
}

// reference computes the expected hits of req over asm with the
// single-threaded internal/baseline scan, one task per (guide, sequence)
// spread over GOMAXPROCS goroutines. It returns the hits in the sorted
// output order and the summed task time, from which the single-threaded
// reference rate follows.
func reference(asm *genome.Assembly, req *search.Request) ([]search.Hit, time.Duration, error) {
	plan, err := pipeline.Compile(req)
	if err != nil {
		return nil, 0, err
	}
	type task struct{ qi, si int }
	tasks := make(chan task)
	var (
		mu      sync.Mutex
		out     []search.Hit
		busy    time.Duration
		errOnce error
		wg      sync.WaitGroup
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				q := req.Queries[t.qi]
				seq := asm.Sequences[t.si]
				t0 := time.Now()
				hits, err := baseline.Search(seq.Data, []byte(req.Pattern), []byte(q.Guide), q.MaxMismatches)
				d := time.Since(t0)
				local := make([]search.Hit, 0, len(hits))
				for _, h := range hits {
					window := seq.Data[h.Pos : h.Pos+len(req.Pattern)]
					local = append(local, search.Hit{QueryIndex: t.qi, SeqName: seq.Name, Pos: h.Pos, Dir: h.Dir,
						Mismatches: h.Mismatches, Site: pipeline.RenderSite(window, plan.Guides[t.qi], h.Dir)})
				}
				mu.Lock()
				out = append(out, local...)
				busy += d
				if err != nil && errOnce == nil {
					errOnce = err
				}
				mu.Unlock()
			}
		}()
	}
	for qi := range req.Queries {
		for si := range asm.Sequences {
			tasks <- task{qi, si}
		}
	}
	close(tasks)
	wg.Wait()
	if errOnce != nil {
		return nil, 0, errOnce
	}
	pipeline.SortHits(out)
	return out, busy, nil
}

// sameHits reports the first difference between a hit list and the sorted
// reference; got is sorted in place.
func sameHits(got, want []search.Hit) error {
	pipeline.SortHits(got)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("hit %d: got %v, reference %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d hits, reference has %d", len(got), len(want))
	}
	return nil
}

// digest hashes a hit stream in stream order, so a later pass is checked
// against the first pass's checked stream without keeping its hits.
type digest struct {
	h   hash.Hash64
	buf []byte
	n   int
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) add(h search.Hit) {
	b := d.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(h.QueryIndex))
	b = append(b, h.SeqName...)
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Pos))
	b = append(b, h.Dir)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.Mismatches))
	b = append(b, h.Site...)
	b = append(b, 0)
	d.h.Write(b)
	d.buf = b
	d.n++
}

func (d *digest) sum() string { return fmt.Sprintf("%016x/%d", d.h.Sum64(), d.n) }
