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
	"casoffinder/internal/opencl"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/tune"
)

// SimCL runs the search as the paper's original OpenCL application: the
// full 13-step host lifecycle over the device simulator, with the
// work-group size left to the runtime (the OpenCL-side condition of the
// Table VIII comparison) unless WorkGroupSize forces one.
type SimCL struct {
	// Device is the simulated GPU to run on.
	Device *gpu.Device
	// Variant selects the comparer kernel (Base unless exploring the
	// optimizations of §IV.B).
	Variant kernels.ComparerVariant
	// WorkGroupSize forces a local size; 0 lets the runtime choose, as the
	// upstream OpenCL host program does.
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
	// layout (one page per work-group — the provisioning the pre-arena
	// backends effectively used) instead of sizing it from the predicted hit
	// density. The kernels and the hit stream are identical either way; only
	// the provisioned bytes differ, which is what the staged-bytes ablation
	// measures.
	WorstCaseArena bool
	// Resilience, when set, runs the engine under the pipeline's
	// fault-tolerant executor: transient errors retry with backoff, hung
	// kernels are reaped by the watchdog, and chunks the device cannot
	// complete fail over to the CPU SWAR engine (unless a custom Fallback
	// is configured), preserving the byte-identical hit stream.
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
	// Stream before the backend opens, read-only while the run is live.
	tuned *tune.Decision
}

// Name implements Engine.
func (e *SimCL) Name() string { return "opencl-sim" }

func (e *SimCL) track() string {
	if e.Track != "" {
		return e.Track
	}
	return e.Name()
}

// LastProfile implements Profiler.
func (e *SimCL) LastProfile() *Profile { return e.profile }

// variant is the comparer the run actually builds: the tuner's selection
// when one was resolved, the configured Variant otherwise.
func (e *SimCL) variant() kernels.ComparerVariant {
	if e.tuned != nil {
		return e.tuned.Variant
	}
	return e.Variant
}

// wgSize is the enqueued local size: the tuner's selection when one was
// resolved, the forced WorkGroupSize otherwise — still 0 ("runtime's
// choice", the upstream OpenCL behaviour) when neither is set.
func (e *SimCL) wgSize() int {
	if e.tuned != nil {
		return e.tuned.WGSize
	}
	return e.WorkGroupSize
}

// Run implements Engine.
func (e *SimCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by driving the two kernels through the OpenCL
// host API behind the shared pipeline: one scan worker owns the command
// queue while the stager creates the next chunk's buffers.
func (e *SimCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	// Resolve the tuner before the pipeline opens the backend; the decision
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
			return newCLBackend(e, plan)
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

// clBackend adapts the OpenCL host program to the pipeline Backend
// contract. The run-wide objects (context, queue, program, kernels,
// pattern buffers) live for the whole stream; every buffer is tracked in
// the live set so Close can release whatever an aborted run left behind —
// a staging error can no longer leak simulator buffers.
type clBackend struct {
	e    *SimCL
	plan *pipeline.Plan
	prof *Profile

	ctx      *opencl.Context
	queue    *opencl.CommandQueue
	prog     *opencl.Program
	finder   *opencl.Kernel
	comparer *opencl.Kernel

	patBuf    *opencl.Mem
	patIdxBuf *opencl.Mem

	// finderPred and comparerPred carry the observed hit density across
	// chunks; each launch's arena is provisioned from them unless the
	// artifact's PAM index gives an exact count or WorstCaseArena pins the
	// layout.
	finderPred   *alloc.Predictor
	comparerPred *alloc.Predictor

	// mu guards live: the stager creates buffers while the scan worker
	// releases others.
	mu   sync.Mutex
	live map[*opencl.Mem]struct{}
}

// clCreate creates a buffer and registers it in the backend's live set.
func clCreate[T any](b *clBackend, flags opencl.MemFlags, n int, host []T) (*opencl.Mem, error) {
	m, err := opencl.CreateBuffer(b.ctx, flags, n, host)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.live[m] = struct{}{}
	b.mu.Unlock()
	return m, nil
}

// newCLBackend performs steps 1-8 of the host lifecycle (platform, device,
// context, queue, program, build, kernels) plus the run-constant pattern
// upload. On any failure the partially built state is torn down via Close.
func newCLBackend(e *SimCL, plan *pipeline.Plan) (_ *clBackend, err error) {
	b := &clBackend{
		e: e, plan: plan, prof: newProfile(e.Metrics),
		finderPred:   newFinderPredictor(),
		comparerPred: newComparerPredictor(),
		live:         make(map[*opencl.Mem]struct{}),
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

	// Steps 1-4: platform, device, context, queue.
	platform := opencl.NewPlatform("ROCm", "AMD", e.Device)
	devs, err := platform.GetDevices(opencl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	if b.ctx, err = opencl.CreateContext(devs...); err != nil {
		return nil, err
	}
	if b.queue, err = b.ctx.CreateCommandQueue(devs[0]); err != nil {
		return nil, err
	}

	// Steps 6-8: program and kernels.
	if b.prog, err = b.ctx.CreateProgramWithSource(kernels.CLSource()); err != nil {
		return nil, err
	}
	if err = b.prog.Build("-O3"); err != nil {
		return nil, err
	}
	if b.finder, err = b.prog.CreateKernel("finder"); err != nil {
		return nil, err
	}
	if b.comparer, err = b.prog.CreateKernel(kernels.ComparerKernelName(e.variant())); err != nil {
		return nil, err
	}

	// Step 5 (per-run constants): pattern tables.
	pattern := plan.Pattern
	if b.patBuf, err = clCreate(b, opencl.MemReadOnly|opencl.MemUseConstant|opencl.MemCopyHostPtr, len(pattern.Codes), pattern.Codes); err != nil {
		return nil, err
	}
	if b.patIdxBuf, err = clCreate(b, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(pattern.Index), pattern.Index); err != nil {
		return nil, err
	}
	b.prof.addStaged(int64(len(pattern.Codes) + 4*len(pattern.Index)))
	return b, nil
}

// releaseBuf releases a buffer and drops it from the live set; nil buffers
// are ignored so error paths can release unconditionally.
func (b *clBackend) releaseBuf(m *opencl.Mem) error {
	if m == nil {
		return nil
	}
	b.mu.Lock()
	delete(b.live, m)
	b.mu.Unlock()
	return m.Release()
}

// Close implements pipeline.Backend: release every still-live buffer (the
// pattern tables plus whatever staged chunks never reached Drain), then the
// kernels, program, queue and context, folding the first error.
func (b *clBackend) Close() (err error) {
	b.mu.Lock()
	leaked := make([]*opencl.Mem, 0, len(b.live))
	for m := range b.live {
		leaked = append(leaked, m)
	}
	b.live = make(map[*opencl.Mem]struct{})
	b.mu.Unlock()
	for _, m := range leaked {
		closeErr(m.Release(), &err)
	}
	b.patBuf, b.patIdxBuf = nil, nil
	if b.finder != nil {
		closeErr(b.finder.Release(), &err)
		b.finder = nil
	}
	if b.comparer != nil {
		closeErr(b.comparer.Release(), &err)
		b.comparer = nil
	}
	if b.prog != nil {
		closeErr(b.prog.Release(), &err)
		b.prog = nil
	}
	if b.queue != nil {
		closeErr(b.queue.Release(), &err)
		b.queue = nil
	}
	if b.ctx != nil {
		closeErr(b.ctx.Release(), &err)
		b.ctx = nil
	}
	return err
}

// clArena is one launch's device-side arena state: the page cursor, the
// per-group emission counters and page table, and the overflow counter.
type clArena struct {
	layout alloc.Layout

	cursorBuf, countBuf, pageBuf, ovfBuf *opencl.Mem
}

// createArena allocates and initialises one launch's arena state buffers
// for the layout (cursor and counters zeroed, page table cleared to NoPage).
// On error the partial allocation is left to the caller's release/Close.
func (b *clBackend) createArena(l alloc.Layout) (*clArena, error) {
	a := &clArena{layout: l}
	var err error
	if a.cursorBuf, err = clCreate[uint32](b, opencl.MemReadWrite, 1, nil); err != nil {
		return nil, err
	}
	if a.countBuf, err = clCreate[uint32](b, opencl.MemReadWrite, l.Groups, nil); err != nil {
		return nil, err
	}
	if a.pageBuf, err = clCreate(b, opencl.MemReadWrite|opencl.MemCopyHostPtr, l.Groups, alloc.UnsetPages(l.Groups)); err != nil {
		return nil, err
	}
	if a.ovfBuf, err = clCreate[uint32](b, opencl.MemReadWrite, 1, nil); err != nil {
		return nil, err
	}
	b.prof.addStaged(l.MetaBytes())
	return a, nil
}

// release frees the arena's state buffers.
func (a *clArena) release(b *clBackend) error {
	var err error
	for _, m := range []*opencl.Mem{a.cursorBuf, a.countBuf, a.pageBuf, a.ovfBuf} {
		closeErr(b.releaseBuf(m), &err)
	}
	return err
}

// readArena reads the launch's arena state back. The overflow counter is
// read (and accounted) first: a non-zero value means the launch dropped
// entries and must be retried on a grown arena, returned as dropped with a
// nil geometry. A clean launch's claim state is then read and decoded —
// Decode rejects impossible state as fault.SiteArena corruption, after the
// readback bytes are already on the profile.
func (b *clBackend) readArena(a *clArena) (geo *alloc.Geometry, dropped uint32, err error) {
	ovf := make([]uint32, 1)
	if _, err := opencl.EnqueueReadBuffer(b.queue, a.ovfBuf, true, 0, 1, ovf); err != nil {
		return nil, 0, err
	}
	b.prof.addRead(4)
	if ovf[0] != 0 {
		return nil, ovf[0], nil
	}
	cursor := make([]uint32, 1)
	if _, err := opencl.EnqueueReadBuffer(b.queue, a.cursorBuf, true, 0, 1, cursor); err != nil {
		return nil, 0, err
	}
	count := make([]uint32, a.layout.Groups)
	if _, err := opencl.EnqueueReadBuffer(b.queue, a.countBuf, true, 0, len(count), count); err != nil {
		return nil, 0, err
	}
	pageOf := make([]uint32, a.layout.Groups)
	if _, err := opencl.EnqueueReadBuffer(b.queue, a.pageBuf, true, 0, len(pageOf), pageOf); err != nil {
		return nil, 0, err
	}
	b.prof.addRead(4 + 8*int64(a.layout.Groups))
	geo, err = alloc.Decode(cursor[0], count, pageOf, a.layout.PageSlots, a.layout.Pages)
	if err != nil {
		return nil, 0, err
	}
	return geo, 0, nil
}

// clStaged is one chunk's state: the sequence buffer created at stage time,
// the device-side compacted candidate buffers the finder arena is drained
// into, and the raw entries accumulated across guides.
type clStaged struct {
	ch *genome.Chunk

	chrBuf              *opencl.Mem
	cLociBuf, cFlagsBuf *opencl.Mem

	n       int
	entries []rawHit
}

// Stage implements pipeline.Backend: create and fill the chunk's sequence
// buffer (step 9 of the host lifecycle). The finder's output no longer
// stages worst-case sites-sized buffers here — each Find attempt provisions
// an arena for the predicted density instead. This runs on the stager
// goroutine while the scan worker drives kernels over the previous chunk.
func (b *clBackend) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	s := &clStaged{ch: ch}
	data := ch.Data
	var err error
	if s.chrBuf, err = clCreate(b, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(data), data); err != nil {
		return nil, err
	}
	b.prof.addStagedChunk(int64(len(data)))
	return s, nil
}

// Find implements pipeline.Backend: enqueue the finder over the padded site
// range with an arena provisioned for the predicted candidate density, grow
// and relaunch on overflow, then compact the claimed pages into the
// comparer's exact-size input with device-to-device copies. Only the arena's
// claim state crosses back to the host; the candidates themselves never do.
func (b *clBackend) Find(ctx context.Context, st pipeline.Staged) (int, error) {
	s := st.(*clStaged)
	plen := b.plan.Pattern.PatternLen
	sites := s.ch.Body
	if sites == 0 {
		// A final chunk can own zero site starts (its body is shorter than
		// the pattern's overlap); there is nothing to scan, and a zero-sized
		// ND-range cannot be enqueued.
		return 0, nil
	}

	wg := b.e.wgSize()
	pad := wg
	if pad <= 0 {
		pad = 64
	}
	// The padded global size makes the effective local size deterministic
	// even when wg=0 leaves the choice to the runtime (defaultLocalSize
	// picks the largest power of two dividing gws), so the group count —
	// and with it the arena's page tables — is known on the host.
	gws := (sites + pad - 1) / pad * pad
	layout := finderLayout(b.plan, b.finderPred, s.ch, gws/pad, pad, b.e.WorstCaseArena)

	for {
		lociBuf, err := clCreate[uint32](b, opencl.MemReadWrite, layout.Slots(), nil)
		if err != nil {
			return 0, err
		}
		flagsBuf, err := clCreate[byte](b, opencl.MemReadWrite, layout.Slots(), nil)
		if err != nil {
			return 0, err
		}
		arena, err := b.createArena(layout)
		if err != nil {
			return 0, err
		}
		b.prof.addArena(layout.DataBytes(finderEntryBytes)+layout.MetaBytes(), 0)
		release := func() error {
			var err error
			closeErr(b.releaseBuf(lociBuf), &err)
			closeErr(b.releaseBuf(flagsBuf), &err)
			closeErr(arena.release(b), &err)
			return err
		}

		finderArgs := []any{
			s.chrBuf, b.patBuf, b.patIdxBuf,
			int32(plen), uint32(sites),
			lociBuf, flagsBuf,
			int32(layout.PageSlots), int32(layout.Pages),
			arena.cursorBuf, arena.countBuf, arena.pageBuf, arena.ovfBuf,
		}
		for i, a := range finderArgs {
			if err := b.finder.SetArg(i, a); err != nil {
				return 0, err
			}
		}
		if err := b.finder.SetArgLocal(kernels.FinderArgLocalPat, 2*plen); err != nil {
			return 0, err
		}
		if err := b.finder.SetArgLocal(kernels.FinderArgLocalPatIndex, 4*2*plen); err != nil {
			return 0, err
		}

		ev, err := b.queue.EnqueueNDRangeKernelCtx(ctx, b.finder, gws, wg)
		if err != nil {
			return 0, err
		}
		if err := ev.Wait(); err != nil {
			return 0, err
		}
		b.prof.addKernel("finder", ev.Stats(), pad)

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
			// Compact the candidates into the comparer's exact-size input with
			// device-to-device copies, one per claimed page in owning-group
			// order (so the comparer's input is schedule-independent): the comparer
			// indexes loci/flags densely in [0, n), so a page-strided view
			// would not do, and an on-device compaction keeps the candidates
			// off the PCIe bus entirely — the host only ever reads the arena's
			// claim state.
			if s.cLociBuf, err = clCreate[uint32](b, opencl.MemReadWrite, s.n, nil); err != nil {
				return 0, err
			}
			if s.cFlagsBuf, err = clCreate[byte](b, opencl.MemReadWrite, s.n, nil); err != nil {
				return 0, err
			}
			pos := 0
			for _, p := range geo.Order {
				n := geo.Counts[p]
				if _, err := opencl.EnqueueCopyBuffer[uint32](b.queue, lociBuf, s.cLociBuf, p*layout.PageSlots, pos, n); err != nil {
					return 0, err
				}
				if _, err := opencl.EnqueueCopyBuffer[byte](b.queue, flagsBuf, s.cFlagsBuf, p*layout.PageSlots, pos, n); err != nil {
					return 0, err
				}
				pos += n
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

// Compare implements pipeline.Backend: upload one guide's tables, enqueue
// the comparer with an arena provisioned for the predicted entry density
// (two slots per candidate in the worst case), grow and relaunch on
// overflow, and gather the entries with one ranged read per claimed page.
// The transient guide buffers are released here on success; an error leaves
// them to Close.
func (b *clBackend) Compare(ctx context.Context, st pipeline.Staged, qi int) error {
	s := st.(*clStaged)
	g := b.plan.Guides[qi]
	q := b.plan.Request.Queries[qi]

	compBuf, err := clCreate(b, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(g.Codes), g.Codes)
	if err != nil {
		return err
	}
	compIdxBuf, err := clCreate(b, opencl.MemReadOnly|opencl.MemCopyHostPtr, len(g.Index), g.Index)
	if err != nil {
		return err
	}
	b.prof.addStaged(int64(len(g.Codes) + 4*len(g.Index)))

	wg := b.e.wgSize()
	pad := wg
	if pad <= 0 {
		pad = 64
	}
	cgws := (s.n + pad - 1) / pad * pad
	layout := comparerLayout(b.comparerPred, cgws/pad, 2*pad, b.e.WorstCaseArena)

	for {
		mmLociBuf, err := clCreate[uint32](b, opencl.MemWriteOnly, layout.Slots(), nil)
		if err != nil {
			return err
		}
		mmCountBuf, err := clCreate[uint16](b, opencl.MemWriteOnly, layout.Slots(), nil)
		if err != nil {
			return err
		}
		dirBuf, err := clCreate[byte](b, opencl.MemWriteOnly, layout.Slots(), nil)
		if err != nil {
			return err
		}
		arena, err := b.createArena(layout)
		if err != nil {
			return err
		}
		b.prof.addArena(layout.DataBytes(comparerEntryBytes)+layout.MetaBytes(), 0)
		release := func() error {
			var err error
			for _, m := range []*opencl.Mem{mmLociBuf, mmCountBuf, dirBuf} {
				closeErr(b.releaseBuf(m), &err)
			}
			closeErr(arena.release(b), &err)
			return err
		}

		comparerArgs := []any{
			uint32(s.n), s.chrBuf, s.cLociBuf, mmLociBuf,
			compBuf, compIdxBuf,
			int32(g.PatternLen), uint16(q.MaxMismatches),
			s.cFlagsBuf, mmCountBuf, dirBuf,
			int32(layout.PageSlots), int32(layout.Pages),
			arena.cursorBuf, arena.countBuf, arena.pageBuf, arena.ovfBuf,
		}
		for i, a := range comparerArgs {
			if err := b.comparer.SetArg(i, a); err != nil {
				return err
			}
		}
		if err := b.comparer.SetArgLocal(kernels.ComparerArgLocalComp, 2*g.PatternLen); err != nil {
			return err
		}
		if err := b.comparer.SetArgLocal(kernels.ComparerArgLocalCompIndex, 4*2*g.PatternLen); err != nil {
			return err
		}
		ev, err := b.queue.EnqueueNDRangeKernelCtx(ctx, b.comparer, cgws, wg)
		if err != nil {
			return err
		}
		if err := ev.Wait(); err != nil {
			return err
		}
		b.prof.addKernel(b.comparer.Name(), ev.Stats(), pad)

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
		// The comparer emits at most one entry per strand per candidate; a
		// larger count can only be a corrupted readback — reject it before
		// sizing the entry gather on it. The readback bytes are already on
		// the profile.
		if cnt > 2*s.n {
			return fault.Errorf(fault.SiteReadback, fault.Corruption,
				"search: %s: comparer entry count %d exceeds 2×%d candidates", b.e.Name(), cnt, s.n)
		}
		b.prof.addEntries(int64(cnt))
		if cnt > 0 {
			// Ranged reads gather only each claimed page's valid prefix: the
			// readback traffic is cnt entries however sparsely the pages are
			// filled, just as the pre-arena host read exactly the counted
			// entries.
			mmLoci := make([]uint32, cnt)
			mmCount := make([]uint16, cnt)
			dirs := make([]byte, cnt)
			pos := 0
			for _, p := range geo.Order {
				n := geo.Counts[p]
				base := p * layout.PageSlots
				if _, err := opencl.EnqueueReadBuffer(b.queue, mmLociBuf, true, base, n, mmLoci[pos:]); err != nil {
					return err
				}
				if _, err := opencl.EnqueueReadBuffer(b.queue, mmCountBuf, true, base, n, mmCount[pos:]); err != nil {
					return err
				}
				if _, err := opencl.EnqueueReadBuffer(b.queue, dirBuf, true, base, n, dirs[pos:]); err != nil {
					return err
				}
				pos += n
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
	if err := b.releaseBuf(compBuf); err != nil {
		return err
	}
	return b.releaseBuf(compIdxBuf)
}

// Drain implements pipeline.Backend: render the accumulated entries
// (rejecting corrupted readbacks) and release the chunk's buffers.
func (b *clBackend) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*clStaged)
	hits, derr := drainEntries(r, s.ch, b.plan.Guides, s.entries)
	if derr != nil {
		// Corrupted entries: keep the buffers for Release/Close and hand
		// the corruption class to the resilient executor.
		return nil, derr
	}
	var err error
	for _, m := range []*opencl.Mem{s.chrBuf, s.cLociBuf, s.cFlagsBuf} {
		closeErr(b.releaseBuf(m), &err)
	}
	if err != nil {
		return nil, err
	}
	return hits, nil
}

// Release implements pipeline.Releaser: free an abandoned staged handle's
// buffers as soon as the resilient executor gives up on an attempt, rather
// than holding them (against the device memory budget) until Close. A lost
// context makes the releases fail; Close's sweep stays the backstop.
func (b *clBackend) Release(st pipeline.Staged) {
	s, ok := st.(*clStaged)
	if !ok || s == nil {
		return
	}
	for _, m := range []*opencl.Mem{s.chrBuf, s.cLociBuf, s.cFlagsBuf} {
		_ = b.releaseBuf(m) // best effort; Close sweeps leftovers
	}
}
