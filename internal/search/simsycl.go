package search

import (
	"context"
	"fmt"
	"sync"

	"casoffinder/internal/fault"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/sycl"
	"casoffinder/internal/tune"
)

// SimSYCL runs the search as the migrated SYCL application (§III): a queue
// from a device selector, buffers with accessors, command groups with local
// accessors and parallel_for, and implicit buffer write-back. The kernels
// are the same bodies the OpenCL engine runs; the work-group size is 256
// for both kernels, as in the paper's SYCL program.
type SimSYCL struct {
	// Device is the simulated GPU to run on.
	Device *gpu.Device
	// Variant selects the comparer kernel.
	Variant kernels.ComparerVariant
	// WorkGroupSize overrides the launch local size; 0 means 256.
	WorkGroupSize int
	// Auto resolves Variant and WorkGroupSize through the occupancy
	// autotuner (internal/tune) for this device at Stream start: Variant is
	// ignored, and WorkGroupSize (when set) narrows the tuner to that local
	// size instead of overriding its choice. Calibrate additionally runs
	// the tuner's online measured pass. Output is byte-identical to any
	// fixed-variant run.
	Auto      bool
	Calibrate bool
	// WorstCaseArena pins every launch's hit-buffer arena to the worst-case
	// layout (one page per work-group) instead of sizing it from the
	// predicted hit density; see SimCL.WorstCaseArena.
	WorstCaseArena bool
	// Resilience, when set, runs the engine under the pipeline's
	// fault-tolerant executor: transient errors (including asynchronous
	// exceptions) retry with backoff, hung kernels are reaped by the
	// watchdog, and chunks the device cannot complete fail over to the
	// CPU SWAR engine (unless a custom Fallback is configured),
	// preserving the byte-identical hit stream.
	Resilience *pipeline.Resilience
	// Trace and Metrics, when set, observe the run: pipeline-stage and
	// kernel-launch spans, latency histograms and profile-mirroring
	// counters. Track overrides the trace row prefix (the engine name by
	// default); MultiSYCL sets it to tell its sub-engines apart.
	Trace   *obs.Tracer
	Metrics *obs.Metrics
	Track   string

	profile *Profile
	// tuned is the resolved autotuner decision for the current run; set by
	// Stream (or by MultiSYCL for its per-device shells) before any backend
	// opens, read-only while the run is live.
	tuned *tune.Decision
}

// DefaultSYCLWorkGroup is the local work size of the SYCL application:
// "the local work size (work-group size) is 256 for launching both SYCL
// kernels" (§IV.A).
const DefaultSYCLWorkGroup = 256

// Name implements Engine.
func (e *SimSYCL) Name() string { return "sycl-sim" }

func (e *SimSYCL) track() string {
	if e.Track != "" {
		return e.Track
	}
	return e.Name()
}

// LastProfile implements Profiler.
func (e *SimSYCL) LastProfile() *Profile { return e.profile }

// variant is the comparer the run actually launches: the tuner's selection
// when one was resolved, the configured Variant otherwise.
func (e *SimSYCL) variant() kernels.ComparerVariant {
	if e.tuned != nil {
		return e.tuned.Variant
	}
	return e.Variant
}

func (e *SimSYCL) wgSize() int {
	if e.tuned != nil {
		return e.tuned.WGSize
	}
	if e.WorkGroupSize > 0 {
		return e.WorkGroupSize
	}
	return DefaultSYCLWorkGroup
}

// Run implements Engine.
func (e *SimSYCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by running the SYCL command groups behind the
// shared pipeline: one scan worker submits kernels while the stager
// creates the next chunk's buffers.
func (e *SimSYCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	// Resolve the tuner before the pipeline opens any backend; the decision
	// is read-only for the rest of the run.
	e.tuned = nil
	if e.Auto && e.Device != nil {
		d, err := autotuneDecision(e.Device, req, e.WorkGroupSize, e.Calibrate)
		if err != nil {
			return fmt.Errorf("search: %s: autotune: %w", e.Name(), err)
		}
		e.tuned = d
	}
	p := &pipeline.Pipeline{
		Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
			if e.Device == nil {
				return nil, fmt.Errorf("search: %s: nil device", e.Name())
			}
			return newSYCLBackend(e, plan)
		},
		ScanWorkers: 1,
		Resilience:  resilienceFor(e.Resilience, func() *Profile { return e.profile }),
		Trace:       e.Trace,
		Metrics:     e.Metrics,
		Track:       e.track(),
	}
	// Mark the injector before the run so only this run's fault delta is
	// folded into the profile — a reused engine must not re-count earlier
	// runs' faults.
	var mark int
	if e.Device != nil {
		e.Device.SetObs(e.Trace, e.Metrics, e.track()+"/gpu")
		mark = e.Device.Faults().Mark()
	}
	err := p.Stream(ctx, asm, req, emit)
	if e.Device != nil && e.profile != nil {
		e.profile.addFaults(e.Device.Faults().LogSince(mark))
	}
	return err
}

// destroyer is the common teardown face of sycl.Buffer[T] across element
// types, so one live set can hold them all.
type destroyer interface{ Destroy() error }

// syclBackend adapts the SYCL program to the pipeline Backend contract.
// Every buffer is tracked in the live set so Close can destroy whatever an
// aborted run left behind — a staging error can no longer leak simulator
// buffers.
type syclBackend struct {
	e    *SimSYCL
	plan *pipeline.Plan
	prof *Profile

	queue *sycl.Queue

	patBuf    *sycl.Buffer[byte]
	patIdxBuf *sycl.Buffer[int32]

	// finderPred and comparerPred carry the observed hit density across
	// chunks for arena provisioning; see the shared helpers in arena.go.
	finderPred   *alloc.Predictor
	comparerPred *alloc.Predictor

	// mu guards live: the stager creates buffers while the scan worker
	// destroys others.
	mu   sync.Mutex
	live map[destroyer]struct{}
}

// track registers a freshly created buffer in the backend's live set.
func (b *syclBackend) track(d destroyer) {
	b.mu.Lock()
	b.live[d] = struct{}{}
	b.mu.Unlock()
}

// syclDestroy destroys a buffer and drops it from the live set, folding the
// error; nil buffers are ignored so error paths can destroy unconditionally.
func syclDestroy[T any](b *syclBackend, buf *sycl.Buffer[T], err *error) {
	if buf == nil {
		return
	}
	b.mu.Lock()
	delete(b.live, buf)
	b.mu.Unlock()
	closeErr(buf.Destroy(), err)
}

// newSYCLBackend builds the queue (steps 1-2 of the SYCL column) and the
// run-constant pattern tables; the scaffold goes behind the constant
// address space as in the paper's finder kernel.
func newSYCLBackend(e *SimSYCL, plan *pipeline.Plan) (_ *syclBackend, err error) {
	b := &syclBackend{
		e: e, plan: plan, prof: newProfile(e.Metrics),
		finderPred:   newFinderPredictor(),
		comparerPred: newComparerPredictor(),
		live:         make(map[destroyer]struct{}),
	}
	e.profile = b.prof
	if e.tuned != nil {
		b.prof.addTune(e.track(), e.tuned)
	}
	defer func() {
		if err != nil {
			b.Close()
		}
	}()
	if b.queue, err = sycl.NewQueue(sycl.GPUSelector{}, e.Device); err != nil {
		return nil, err
	}
	// The async handler is how the migrated program observes asynchronous
	// exceptions (§III): every delivery is counted in the profile; the
	// errors themselves still surface on the events the backend waits on.
	b.queue.SetAsyncHandler(func(*sycl.AsyncError) { b.prof.addAsync() })
	pattern := plan.Pattern
	if b.patBuf, err = sycl.NewConstantBuffer(pattern.Codes); err != nil {
		return nil, err
	}
	b.track(b.patBuf)
	if b.patIdxBuf, err = sycl.NewBufferFrom(pattern.Index); err != nil {
		return nil, err
	}
	b.track(b.patIdxBuf)
	b.prof.addStaged(int64(len(pattern.Codes) + 4*len(pattern.Index)))
	return b, nil
}

// Close implements pipeline.Backend: destroy every still-live buffer (the
// pattern tables plus whatever staged chunks never reached Drain), folding
// the first error.
func (b *syclBackend) Close() (err error) {
	b.mu.Lock()
	leaked := make([]destroyer, 0, len(b.live))
	for d := range b.live {
		leaked = append(leaked, d)
	}
	b.live = make(map[destroyer]struct{})
	b.mu.Unlock()
	for _, d := range leaked {
		closeErr(d.Destroy(), &err)
	}
	b.patBuf, b.patIdxBuf = nil, nil
	return err
}

// syclArena is one launch's device-side arena state buffers.
type syclArena struct {
	layout alloc.Layout

	cursorBuf *sycl.Buffer[uint32]
	countBuf  *sycl.Buffer[uint32]
	pageBuf   *sycl.Buffer[uint32]
	ovfBuf    *sycl.Buffer[uint32]
}

// createArena allocates one launch's arena state buffers for the layout
// (cursor and counters zeroed, page table cleared to NoPage). On error the
// partial allocation is left to the caller's release/Close.
func (b *syclBackend) createArena(l alloc.Layout) (*syclArena, error) {
	a := &syclArena{layout: l}
	var err error
	if a.cursorBuf, err = sycl.NewBuffer[uint32](1); err != nil {
		return nil, err
	}
	b.track(a.cursorBuf)
	if a.countBuf, err = sycl.NewBuffer[uint32](l.Groups); err != nil {
		return nil, err
	}
	b.track(a.countBuf)
	if a.pageBuf, err = sycl.NewBufferFrom(alloc.UnsetPages(l.Groups)); err != nil {
		return nil, err
	}
	b.track(a.pageBuf)
	if a.ovfBuf, err = sycl.NewBuffer[uint32](1); err != nil {
		return nil, err
	}
	b.track(a.ovfBuf)
	b.prof.addStaged(l.MetaBytes())
	return a, nil
}

// release destroys the arena's state buffers.
func (a *syclArena) release(b *syclBackend) error {
	var err error
	syclDestroy(b, a.cursorBuf, &err)
	syclDestroy(b, a.countBuf, &err)
	syclDestroy(b, a.pageBuf, &err)
	syclDestroy(b, a.ovfBuf, &err)
	return err
}

// access binds the arena state into a command group, returning the
// kernel-visible alloc.Device over the accessor slices.
func (a *syclArena) access(h *sycl.Handler) (*alloc.Device, error) {
	cursorAcc, err := sycl.Access(h, a.cursorBuf, sycl.ReadWrite)
	if err != nil {
		return nil, err
	}
	countAcc, err := sycl.Access(h, a.countBuf, sycl.ReadWrite)
	if err != nil {
		return nil, err
	}
	pageAcc, err := sycl.Access(h, a.pageBuf, sycl.ReadWrite)
	if err != nil {
		return nil, err
	}
	ovfAcc, err := sycl.Access(h, a.ovfBuf, sycl.ReadWrite)
	if err != nil {
		return nil, err
	}
	return &alloc.Device{
		PageSlots: a.layout.PageSlots,
		Pages:     a.layout.Pages,
		Cursor:    &cursorAcc.Slice()[0],
		Count:     countAcc.Slice(),
		PageOf:    pageAcc.Slice(),
		Overflow:  &ovfAcc.Slice()[0],
	}, nil
}

// readArena snapshots the launch's arena state back. The overflow counter
// is read (and accounted) first: a non-zero value means the launch dropped
// entries and must be retried on a grown arena, returned as dropped with a
// nil geometry. A clean launch's claim state is then snapshotted and
// decoded — Decode rejects impossible state as fault.SiteArena corruption,
// after the readback bytes are already on the profile.
func (b *syclBackend) readArena(a *syclArena) (geo *alloc.Geometry, dropped uint32, err error) {
	ovf, err := a.ovfBuf.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	b.prof.addRead(4)
	if ovf[0] != 0 {
		return nil, ovf[0], nil
	}
	cursor, err := a.cursorBuf.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	count, err := a.countBuf.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	pageOf, err := a.pageBuf.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	b.prof.addRead(4 + 8*int64(a.layout.Groups))
	geo, err = alloc.Decode(cursor[0], count, pageOf, a.layout.PageSlots, a.layout.Pages)
	if err != nil {
		return nil, 0, err
	}
	return geo, 0, nil
}

// syclStaged is one chunk's state: the sequence buffer created at stage
// time, the device-side compacted candidate buffers the finder arena is
// drained into, and the raw entries accumulated across guides.
type syclStaged struct {
	ch *genome.Chunk

	chrBuf    *sycl.Buffer[byte]
	cLociBuf  *sycl.Buffer[uint32]
	cFlagsBuf *sycl.Buffer[byte]

	n       int
	entries []rawHit
}

// Stage implements pipeline.Backend: create the chunk's sequence buffer.
// The chunk is staged as-is: the kernels' IUPAC tables accept soft-masked
// lower-case bases, so no per-chunk upper-case copy is needed (site
// rendering normalizes case in the reported site). The finder's output no
// longer stages worst-case Body-sized buffers here — each Find attempt
// provisions an arena for the predicted density instead. This runs on the
// stager goroutine while the scan worker submits kernels for the previous
// chunk; a mid-stage failure leaves the earlier buffers to Close.
func (b *syclBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	s := &syclStaged{ch: ch}
	var err error
	if s.chrBuf, err = sycl.NewBufferFrom(ch.Data); err != nil {
		return nil, err
	}
	b.track(s.chrBuf)
	b.prof.addStagedChunk(int64(len(ch.Data)))
	return s, nil
}

// Find implements pipeline.Backend: submit the finder command group (local
// accessors, two phases) with an arena provisioned for the predicted
// candidate density, grow and relaunch on overflow, then compact the
// claimed pages into the comparer's exact-size input with device-side copy
// command groups. Only the arena's claim state crosses back to the host;
// the candidates themselves never do.
func (b *syclBackend) Find(ctx context.Context, st pipeline.Staged) (int, error) {
	s := st.(*syclStaged)
	plen := b.plan.Pattern.PatternLen
	sites := s.ch.Body
	if sites == 0 {
		// A final chunk can own zero site starts (its body is shorter than
		// the pattern's overlap); there is nothing to scan, and a zero-sized
		// ND-range cannot be launched.
		return 0, nil
	}
	wg := b.e.wgSize()

	gws := (sites + wg - 1) / wg * wg
	layout := finderLayout(b.plan, b.finderPred, s.ch, gws/wg, wg, b.e.WorstCaseArena)

	for {
		lociBuf, err := sycl.NewBuffer[uint32](layout.Slots())
		if err != nil {
			return 0, err
		}
		b.track(lociBuf)
		flagsBuf, err := sycl.NewBuffer[byte](layout.Slots())
		if err != nil {
			return 0, err
		}
		b.track(flagsBuf)
		arena, err := b.createArena(layout)
		if err != nil {
			return 0, err
		}
		b.prof.addArena(layout.DataBytes(finderEntryBytes)+layout.MetaBytes(), 0)
		release := func() error {
			var err error
			syclDestroy(b, lociBuf, &err)
			syclDestroy(b, flagsBuf, &err)
			closeErr(arena.release(b), &err)
			return err
		}

		ev := b.queue.SubmitCtx(ctx, func(h *sycl.Handler) error {
			chrAcc, err := sycl.Access(h, s.chrBuf, sycl.Read)
			if err != nil {
				return err
			}
			patAcc, err := sycl.Access(h, b.patBuf, sycl.Read)
			if err != nil {
				return err
			}
			patIdxAcc, err := sycl.Access(h, b.patIdxBuf, sycl.Read)
			if err != nil {
				return err
			}
			lociAcc, err := sycl.Access(h, lociBuf, sycl.Write)
			if err != nil {
				return err
			}
			flagsAcc, err := sycl.Access(h, flagsBuf, sycl.Write)
			if err != nil {
				return err
			}
			arenaDev, err := arena.access(h)
			if err != nil {
				return err
			}
			lPat, err := sycl.NewLocalAccessor[byte](h, 2*plen)
			if err != nil {
				return err
			}
			lPatIdx, err := sycl.NewLocalAccessor[int32](h, 2*plen)
			if err != nil {
				return err
			}
			fa := &kernels.FinderArgs{
				Chr: chrAcc.Slice(),
				Pattern: &kernels.PatternPair{
					Codes:      patAcc.Slice(),
					Index:      patIdxAcc.Slice(),
					PatternLen: plen,
				},
				Sites: sites,
				Loci:  lociAcc.Slice(),
				Flags: flagsAcc.Slice(),
				Arena: arenaDev,
			}
			return h.ParallelForPhases("finder", gpu.R1(gws), gpu.R1(wg), []func(it *sycl.NDItem){
				func(it *sycl.NDItem) { kernels.FinderStage(it.Item(), fa, lPat.Slice(it), lPatIdx.Slice(it)) },
				func(it *sycl.NDItem) { kernels.FinderScan(it.Item(), fa, lPat.Slice(it), lPatIdx.Slice(it)) },
			})
		})
		if err := ev.Wait(); err != nil {
			return 0, err
		}
		b.prof.addKernel("finder", ev.Stats(), wg)

		geo, dropped, err := b.readArena(arena)
		if err != nil {
			return 0, err
		}
		if dropped > 0 {
			if err := release(); err != nil {
				return 0, err
			}
			grown, ok := alloc.Grow(layout)
			if !ok {
				return 0, fault.Errorf(fault.SiteArena, fault.Overflow,
					"search: %s: finder arena dropped %d entries at worst-case %v", b.e.Name(), dropped, layout)
			}
			layout = grown
			b.prof.addOverflowRetry()
			continue
		}
		b.prof.addArena(0, int64(geo.Claimed))

		s.n = geo.Total
		// The finder emits at most one entry per scanned site; a larger
		// total can only be corrupted arena state that slipped past Decode's
		// structural checks. Reject before sizing the gather on it — the
		// readback bytes are already on the profile.
		if s.n > sites {
			s.n = 0
			return 0, fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: %s: finder count %d exceeds the %d scanned sites", b.e.Name(), geo.Total, sites)
		}
		b.prof.addCandidates(int64(s.n))

		if s.n > 0 {
			// Compact the candidates into the comparer's exact-size input
			// with device-side copy command groups, one per claimed page: the
			// comparer indexes loci/flags densely in [0, n), so a
			// page-strided view would not do, and cgh.copy between ranged
			// accessors keeps the candidates off the host entirely — only
			// the arena's claim state is ever read back.
			if s.cLociBuf, err = sycl.NewBuffer[uint32](s.n); err != nil {
				return 0, err
			}
			b.track(s.cLociBuf)
			if s.cFlagsBuf, err = sycl.NewBuffer[byte](s.n); err != nil {
				return 0, err
			}
			b.track(s.cFlagsBuf)
			if err := copyPages(b.queue, lociBuf, s.cLociBuf, geo); err != nil {
				return 0, err
			}
			if err := copyPages(b.queue, flagsBuf, s.cFlagsBuf, geo); err != nil {
				return 0, err
			}
		}
		if err := release(); err != nil {
			return 0, err
		}
		b.finderPred.Observe(layout.Groups, geo.Claimed)
		break
	}
	return s.n, nil
}

// copyPages drains the claimed pages of a page-strided arena buffer, in
// owning-group order, into a compact destination with one device-side copy
// command group per page —
// cgh.copy(srcAccessor, dstAccessor) over ranged accessors. Each copy is
// waited on so the caller may destroy the source afterwards.
func copyPages[T any](q *sycl.Queue, src, dst *sycl.Buffer[T], geo *alloc.Geometry) error {
	pos := 0
	for _, p := range geo.Order {
		n := geo.Counts[p]
		base := p * geo.PageSlots
		at := pos
		ev := q.Submit(func(h *sycl.Handler) error {
			srcAcc, err := sycl.AccessRange(h, src, sycl.Read, n, base)
			if err != nil {
				return err
			}
			dstAcc, err := sycl.AccessRange(h, dst, sycl.Write, n, at)
			if err != nil {
				return err
			}
			return sycl.Copy(h, dstAcc, srcAcc)
		})
		if err := ev.Wait(); err != nil {
			return err
		}
		pos += n
	}
	return nil
}

// Compare implements pipeline.Backend: submit one guide's comparer command
// group with an arena provisioned for the predicted entry density (two
// slots per candidate in the worst case), grow and relaunch on overflow,
// and gather the entries with one ranged host accessor per claimed page.
// The transient guide buffers are destroyed here; an error leaves them to
// Close.
func (b *syclBackend) Compare(ctx context.Context, st pipeline.Staged, qi int) (err error) {
	s := st.(*syclStaged)
	g := b.plan.Guides[qi]
	q := b.plan.Request.Queries[qi]
	n := s.n
	wg := b.e.wgSize()

	compBuf, err := sycl.NewBufferFrom(g.Codes)
	if err != nil {
		return err
	}
	b.track(compBuf)
	defer syclDestroy(b, compBuf, &err)
	compIdxBuf, err := sycl.NewBufferFrom(g.Index)
	if err != nil {
		return err
	}
	b.track(compIdxBuf)
	defer syclDestroy(b, compIdxBuf, &err)
	b.prof.addStaged(int64(len(g.Codes) + 4*len(g.Index)))

	phases := kernels.ComparerPhases(b.e.variant())
	name := kernels.ComparerKernelName(b.e.variant())
	cgws := (n + wg - 1) / wg * wg
	layout := comparerLayout(b.comparerPred, cgws/wg, 2*wg, b.e.WorstCaseArena)

	for {
		mmLociBuf, err := sycl.NewBuffer[uint32](layout.Slots())
		if err != nil {
			return err
		}
		b.track(mmLociBuf)
		mmCountBuf, err := sycl.NewBuffer[uint16](layout.Slots())
		if err != nil {
			return err
		}
		b.track(mmCountBuf)
		dirBuf, err := sycl.NewBuffer[byte](layout.Slots())
		if err != nil {
			return err
		}
		b.track(dirBuf)
		arena, err := b.createArena(layout)
		if err != nil {
			return err
		}
		b.prof.addArena(layout.DataBytes(comparerEntryBytes)+layout.MetaBytes(), 0)
		release := func() error {
			var err error
			syclDestroy(b, mmLociBuf, &err)
			syclDestroy(b, mmCountBuf, &err)
			syclDestroy(b, dirBuf, &err)
			closeErr(arena.release(b), &err)
			return err
		}

		ev := b.queue.SubmitCtx(ctx, func(h *sycl.Handler) error {
			chrAcc, err := sycl.Access(h, s.chrBuf, sycl.Read)
			if err != nil {
				return err
			}
			lociAcc, err := sycl.Access(h, s.cLociBuf, sycl.Read)
			if err != nil {
				return err
			}
			flagsAcc, err := sycl.Access(h, s.cFlagsBuf, sycl.Read)
			if err != nil {
				return err
			}
			compAcc, err := sycl.Access(h, compBuf, sycl.Read)
			if err != nil {
				return err
			}
			compIdxAcc, err := sycl.Access(h, compIdxBuf, sycl.Read)
			if err != nil {
				return err
			}
			mmLociAcc, err := sycl.Access(h, mmLociBuf, sycl.Write)
			if err != nil {
				return err
			}
			mmCountAcc, err := sycl.Access(h, mmCountBuf, sycl.Write)
			if err != nil {
				return err
			}
			dirAcc, err := sycl.Access(h, dirBuf, sycl.Write)
			if err != nil {
				return err
			}
			arenaDev, err := arena.access(h)
			if err != nil {
				return err
			}
			lComp, err := sycl.NewLocalAccessor[byte](h, 2*g.PatternLen)
			if err != nil {
				return err
			}
			lCompIdx, err := sycl.NewLocalAccessor[int32](h, 2*g.PatternLen)
			if err != nil {
				return err
			}
			ca := &kernels.ComparerArgs{
				Chr:       chrAcc.Slice(),
				Loci:      lociAcc.Slice(),
				Flags:     flagsAcc.Slice(),
				LociCount: uint32(n),
				Guide: &kernels.PatternPair{
					Codes:      compAcc.Slice(),
					Index:      compIdxAcc.Slice(),
					PatternLen: g.PatternLen,
				},
				Threshold: uint16(q.MaxMismatches),
				MMLoci:    mmLociAcc.Slice(),
				MMCount:   mmCountAcc.Slice(),
				Direction: dirAcc.Slice(),
				Arena:     arenaDev,
			}
			return h.ParallelForPhases(name, gpu.R1(cgws), gpu.R1(wg), []func(it *sycl.NDItem){
				func(it *sycl.NDItem) { phases[0](it.Item(), ca, lComp.Slice(it), lCompIdx.Slice(it)) },
				func(it *sycl.NDItem) { phases[1](it.Item(), ca, lComp.Slice(it), lCompIdx.Slice(it)) },
			})
		})
		if err := ev.Wait(); err != nil {
			return err
		}
		b.prof.addKernel(name, ev.Stats(), wg)

		geo, dropped, err := b.readArena(arena)
		if err != nil {
			return err
		}
		if dropped > 0 {
			if err := release(); err != nil {
				return err
			}
			grown, ok := alloc.Grow(layout)
			if !ok {
				return fault.Errorf(fault.SiteArena, fault.Overflow,
					"search: %s: comparer arena dropped %d entries at worst-case %v", b.e.Name(), dropped, layout)
			}
			layout = grown
			b.prof.addOverflowRetry()
			continue
		}
		b.prof.addArena(0, int64(geo.Claimed))

		cnt := geo.Total
		// The comparer writes at most two entries (one per strand) per
		// candidate; a larger total can only be corrupted arena state.
		// Reject before sizing the gather on it — the readback bytes are
		// already on the profile.
		if cnt > 2*s.n {
			return fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: %s: comparer entry count %d exceeds the %d possible entries", b.e.Name(), cnt, 2*s.n)
		}
		b.prof.addEntries(int64(cnt))
		if cnt > 0 {
			// Ranged host accessors gather only each claimed page's valid
			// prefix: the readback traffic is cnt entries however sparsely
			// the pages are filled, just as the pre-arena host read exactly
			// the counted entries.
			mmLoci := make([]uint32, 0, cnt)
			mmCount := make([]uint16, 0, cnt)
			dirs := make([]byte, 0, cnt)
			for _, p := range geo.Order {
				n := geo.Counts[p]
				base := p * layout.PageSlots
				lo, err := mmLociBuf.SnapshotRange(base, n)
				if err != nil {
					return err
				}
				mc, err := mmCountBuf.SnapshotRange(base, n)
				if err != nil {
					return err
				}
				dir, err := dirBuf.SnapshotRange(base, n)
				if err != nil {
					return err
				}
				mmLoci = append(mmLoci, lo...)
				mmCount = append(mmCount, mc...)
				dirs = append(dirs, dir...)
			}
			b.prof.addRead(int64(comparerEntryBytes * cnt))
			for i := 0; i < cnt; i++ {
				s.entries = append(s.entries, rawHit{qi: qi, pos: int(mmLoci[i]), dir: dirs[i], mm: int(mmCount[i])})
			}
		}
		if err := release(); err != nil {
			return err
		}
		b.comparerPred.Observe(layout.Groups, geo.Claimed)
		break
	}
	return nil
}

// Drain implements pipeline.Backend: render the accumulated entries and
// destroy the chunk's buffers. A corruption error keeps the buffers for
// Release or Close to destroy.
func (b *syclBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*syclStaged)
	hits, derr := drainEntries(r, s.ch, b.plan.Guides, s.entries)
	if derr != nil {
		return nil, derr
	}
	var err error
	syclDestroy(b, s.chrBuf, &err)
	syclDestroy(b, s.cLociBuf, &err)
	syclDestroy(b, s.cFlagsBuf, &err)
	if err != nil {
		return nil, err
	}
	return hits, nil
}

// Release implements pipeline.Releaser: destroy a staged chunk's buffers
// after a failed attempt so a retry can re-stage without leaking. Destroy
// errors are swallowed — Close sweeps whatever remains live.
func (b *syclBackend) Release(st pipeline.Staged) {
	s, ok := st.(*syclStaged)
	if !ok {
		return
	}
	var err error
	syclDestroy(b, s.chrBuf, &err)
	syclDestroy(b, s.cLociBuf, &err)
	syclDestroy(b, s.cFlagsBuf, &err)
}
