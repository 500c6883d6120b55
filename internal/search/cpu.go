package search

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"casoffinder/internal/genome"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
)

// CPU is the production engine: a goroutine-parallel scan over genome
// chunks with no device simulation. It is the engine a downstream user
// would run; the simulator engines exist to reproduce the paper. Chunks are
// scanned in the 2-bit packed format (the upstream optimization noted in the
// paper's related work [21]) by the SWAR word-parallel core — 32 bases per
// uint64 load — with all guides batched into one pass per chunk.
type CPU struct {
	// Workers bounds the concurrent chunk scanners; 0 means NumCPU.
	Workers int
	// Trace and Metrics, when set, record pipeline spans and counters for
	// the run; nil leaves the hot path untouched.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	// Track overrides the trace track prefix (default the engine name).
	Track string
}

// Name implements Engine.
func (c *CPU) Name() string { return "cpu" }

func (c *CPU) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.NumCPU()
}

// Run implements Engine.
func (c *CPU) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), c, asm, req)
}

// Stream implements Engine by running the shared pipeline over the in-place
// chunk scan, one scan worker per configured CPU.
func (c *CPU) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	track := c.Track
	if track == "" {
		track = c.Name()
	}
	p := &pipeline.Pipeline{
		Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
			return newCPUBackend(plan), nil
		},
		ScanWorkers: c.workers(),
		Trace:       c.Trace,
		Metrics:     c.Metrics,
		Track:       track,
	}
	return p.Stream(ctx, asm, req, emit)
}

// cpuBackend adapts the SWAR scan to the pipeline Backend contract.
// Staging is free (chunks are scanned in place), so the pipeline's scan
// workers carry all the parallelism. It implements the pipeline's optional
// BatchComparer, so every guide runs in one candidate-major pass per chunk.
type cpuBackend struct {
	plan *pipeline.Plan
	// shards is set when the plan's artifact carries PAM shards built for
	// this request's scaffold: Find then skips the prefilter scan entirely
	// and slices the chunk's candidates out of the precomputed index.
	shards bool
	// Compiled scaffold and guide patterns, built once per run.
	pattern *BitPattern
	guides  []*BitPattern
	// scratch pools one scanScratch per concurrent scan so the hot loops
	// allocate nothing per chunk.
	scratch sync.Pool
}

func newCPUBackend(plan *pipeline.Plan) *cpuBackend {
	b := &cpuBackend{plan: plan, pattern: CompileBitPattern(plan.Pattern)}
	if plan.Artifact != nil {
		b.shards = plan.Artifact.HasPAMIndex(plan.Request.Pattern)
	}
	b.scratch.New = func() any { return new(scanScratch) }
	b.guides = make([]*BitPattern, len(plan.Guides))
	for i, g := range plan.Guides {
		b.guides[i] = CompileBitPattern(g)
	}
	return b
}

// cpuStaged is the CPU's staged-chunk handle: the chunk itself plus the
// pooled scratch claimed in Find and returned in Drain.
type cpuStaged struct {
	ch   *genome.Chunk
	sc   *scanScratch
	view *genome.WordView
	// base maps chunk-local positions into view's coordinates: ch.Start
	// when view is an artifact's resident whole-sequence view, 0 when it
	// was repacked from the chunk bytes.
	base int
}

// artifactView returns the resident whole-sequence word view covering ch
// when the plan's artifact has one, or nil to fall back to repacking. The
// guard re-derives the match (sequence identity and bounds) from the chunk
// itself, so a chunk from any other assembly simply takes the repack path.
func (b *cpuBackend) artifactView(ch *genome.Chunk) *genome.WordView {
	art := b.plan.Artifact
	if art == nil || ch.SeqIndex < 0 || ch.SeqIndex >= art.SeqCount() {
		return nil
	}
	if art.SeqName(ch.SeqIndex) != ch.SeqName || ch.Start+len(ch.Data) > art.SeqLen(ch.SeqIndex) {
		return nil
	}
	return art.View(ch.SeqIndex)
}

// Stage implements pipeline.Backend. The CPU scans chunks in place, so
// staging only wraps the chunk.
func (b *cpuBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	return &cpuStaged{ch: ch}, nil
}

// Find implements pipeline.Backend: the PAM prefilter into the pooled
// candidate buffer (the finder kernel's role). It prefers the artifact's
// resident whole-sequence view — no per-chunk Repack, and with matching PAM
// shards no prefilter scan at all — and otherwise packs the chunk here, in
// the scan worker, so packing parallelizes across chunks.
func (b *cpuBackend) Find(ctx context.Context, st pipeline.Staged) (int, error) {
	s := st.(*cpuStaged)
	s.sc = b.scratch.Get().(*scanScratch)
	if av := b.artifactView(s.ch); av != nil {
		s.view, s.base = av, s.ch.Start
		if b.shards {
			shard := b.plan.Artifact.PAMRange(s.ch.SeqIndex, s.ch.Start, s.ch.Start+s.ch.Body)
			if err := s.sc.candidatesFromShard(s.ch, shard); err != nil {
				return 0, err
			}
			return len(s.sc.cand), nil
		}
	} else {
		if err := s.sc.packed.Repack(s.ch.Data); err != nil {
			return 0, fmt.Errorf("search: packing chunk at %s:%d: %w", s.ch.SeqName, s.ch.Start, err)
		}
		s.sc.view = s.sc.packed.WordView(s.sc.view)
		s.view, s.base = s.sc.view, 0
	}
	s.sc.findSWARCandidates(s.ch, s.view, b.pattern, s.base)
	return len(s.sc.cand), nil
}

// Compare implements pipeline.Backend: one guide over the surviving
// candidates. The pipeline calls CompareAll instead; Compare exists because
// every Backend must be able to compare one guide at a time.
func (b *cpuBackend) Compare(ctx context.Context, st pipeline.Staged, qi int) error {
	s := st.(*cpuStaged)
	s.sc.compareSWAR(s.view, b.guides[qi], qi, b.plan.Request.Queries[qi].MaxMismatches, s.base)
	return nil
}

// CompareAll implements pipeline.BatchComparer (the comparer kernel's
// role): for every surviving candidate the window words are fetched once
// into pooled scratch, then every guide's compiled pattern runs against the
// cached words (pattern-major inner loop) — one genome pass per chunk
// instead of one per guide.
func (b *cpuBackend) CompareAll(ctx context.Context, st pipeline.Staged) error {
	s := st.(*cpuStaged)
	sc := s.sc
	words := b.pattern.words
	plen := b.plan.Pattern.PatternLen
	if cap(sc.winText) < words {
		sc.winText = make([]uint64, words)
		sc.winUnk = make([]uint64, words)
	}
	text, unk := sc.winText[:words], sc.winUnk[:words]
	queries := b.plan.Request.Queries
	for _, cd := range sc.cand {
		for w := 0; w < words; w++ {
			text[w], unk[w] = s.view.Window(s.base + cd.pos + 32*w)
		}
		for qi, g := range b.guides {
			limit := queries[qi].MaxMismatches
			if cd.strand&strandFwd != 0 {
				if mm, ok := g.MismatchesWords(text, unk, 0, limit); ok {
					sc.entries = append(sc.entries, rawHit{qi: qi, pos: cd.pos, dir: kernels.DirForward, mm: mm})
				}
			}
			if cd.strand&strandRev != 0 {
				if mm, ok := g.MismatchesWords(text, unk, plen, limit); ok {
					sc.entries = append(sc.entries, rawHit{qi: qi, pos: cd.pos, dir: kernels.DirReverse, mm: mm})
				}
			}
		}
	}
	return nil
}

// Drain implements pipeline.Backend: render the accumulated entries and
// return the scratch to the pool.
func (b *cpuBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*cpuStaged)
	hits, err := drainEntries(r, s.ch, b.plan.Guides, s.sc.entries)
	b.Release(s)
	return hits, err
}

// Release implements pipeline.Releaser: return an abandoned handle's
// scratch to the pool so a retried or failed-over chunk does not strand it.
func (b *cpuBackend) Release(st pipeline.Staged) {
	s, ok := st.(*cpuStaged)
	if !ok || s == nil || s.sc == nil {
		return
	}
	s.sc.entries = s.sc.entries[:0]
	b.scratch.Put(s.sc)
	s.sc, s.view = nil, nil
}

// Close implements pipeline.Backend; the CPU holds no run-wide resources.
func (b *cpuBackend) Close() error { return nil }

// Strand-survival bits recorded by the PAM prefilter.
const (
	strandFwd = 1 << iota
	strandRev
)

// candidate is a position that survived the PAM prefilter, tagged with the
// strands on which the scaffold matched.
type candidate struct {
	pos    int
	strand uint8
}

// scanScratch holds per-worker buffers reused across chunks so the scan
// allocates nothing per position: candidate and entry accumulators, the
// packed chunk and its word view (rebuilt in place each chunk), and the
// cached window words of the batched compare.
type scanScratch struct {
	cand    []candidate
	entries []rawHit
	packed  genome.Packed
	view    *genome.WordView
	winText []uint64
	winUnk  []uint64
}
