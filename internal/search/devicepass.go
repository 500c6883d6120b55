package search

// The device-pass driver: the one copy of the host logic the OpenCL and
// SYCL engines share. The paper's two programs run the same finder and
// comparer kernels and differ only in how the host expresses the work
// (Table I's 13 OpenCL steps against 8 SYCL steps, Tables II-VI); so do
// SimCL and SimSYCL. Everything that is not host API lives here once — the
// live buffer set, arena provisioning and the grow-and-relaunch loop, the
// corruption guards, the owning-group-order gather, the profile accounting
// and the Stream wrapper — over a small hostAPI adapter that each frontend
// implements with its own API: simcl.go with contexts, kernels, clSetKernelArg
// and clEnqueue* calls, simsycl.go with a selector queue, command groups,
// accessors and host accessors.

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
	"casoffinder/internal/tune"
)

// devBuf is a device buffer handle minted by a hostAPI adapter.
type devBuf any

// bufMode says how the kernels use a buffer; the OpenCL adapter maps it to
// memory flags, the SYCL adapter to the constant-buffer constructor.
type bufMode int

const (
	bufIn    bufMode = iota // read-only kernel input
	bufConst                // read-only, behind the constant address space
	bufInOut                // read and written by kernels or device copies
	bufOut                  // written by the kernel only
)

// hostAPI is what a frontend's host program has to provide for one device
// pass. Every call completes before it returns, so the driver's call order
// is the frontend's host-API call order.
type hostAPI interface {
	// alloc creates an n-element device buffer of host's element type
	// (host is a typed slice): zeroed when host is nil, an upload of host
	// otherwise.
	alloc(mode bufMode, n int, host any) (devBuf, error)
	// launchFinder and launchComparer run one kernel launch to completion
	// and return its statistics.
	launchFinder(ctx context.Context, l *launch) (*gpu.Stats, error)
	launchComparer(ctx context.Context, l *launch) (*gpu.Stats, error)
	// copy copies n elements from src at srcOff to dst at dstOff on the
	// device.
	copy(src, dst devBuf, srcOff, dstOff, n int) error
	// read copies len(dst) elements from src at off to the host slice dst.
	read(src devBuf, off int, dst any) error
	release(b devBuf) error
	// close releases the run-wide API objects once every buffer is gone.
	close() error
}

// openAPI opens a frontend's adapter on a device, with the comparer variant
// the run launches; onAsync counts asynchronous exceptions where the API
// has them.
type openAPI func(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostAPI, error)

// launch is one arena-backed kernel launch as the driver hands it to an
// adapter.
type launch struct {
	gws, wg int
	// Inputs: the chunk sequence, the pattern tables (finder) or one
	// guide's tables (comparer), and n — the site starts to scan or the
	// compacted candidates, which the comparer reads from loci and flags
	// and tests against the mismatch threshold.
	chr, codes, index devBuf
	plen, n           int
	loci, flags       devBuf
	threshold         uint16
	// Outputs: the page-strided entry buffers (finder: loci, flags;
	// comparer: loci, mismatch counts, directions) and the arena state the
	// kernel claims pages through.
	layout                   alloc.Layout
	entries                  []devBuf
	cursor, count, page, ovf devBuf
}

// arenaKernel says what launchArena provisions for one of the two kernels.
type arenaKernel struct {
	role       string
	entryBytes int
	mode       bufMode
	entries    []any // one typed nil slice per entry buffer
}

var (
	finderKernel   = arenaKernel{"finder", finderEntryBytes, bufInOut, []any{[]uint32(nil), []byte(nil)}}
	comparerKernel = arenaKernel{"comparer", comparerEntryBytes, bufOut, []any{[]uint32(nil), []uint16(nil), []byte(nil)}}
)

// runtimePad is the group size the padded global size rounds to when the
// OpenCL runtime chooses the local size: its preferred single wavefront,
// which it then picks because the padded size divides by it.
const runtimePad = 64

// frontend is one simulator engine as the driver sees it. SimCL and SimSYCL
// each describe themselves with one per run; they differ only in name,
// default local size and adapter.
type frontend struct {
	name, track string
	dev         *gpu.Device
	variantSet  kernels.ComparerVariant
	wg          int // configured local size; <= 0 means defaultWG
	defaultWG   int // 0 leaves the local size to the OpenCL runtime
	auto        bool
	calibrate   bool
	worstCase   bool
	res         *pipeline.Resilience
	trace       *obs.Tracer
	metrics     *obs.Metrics
	open        openAPI
	// last is the engine's LastProfile slot, set when the driver opens.
	last **Profile
	// tuned is the resolved autotuner decision; set before the driver
	// opens, read-only while the run is live.
	tuned *tune.Decision
}

func (f *frontend) profile() *Profile { return *f.last }

// variant is the comparer the run launches: the tuner's selection when one
// was resolved, the configured variant otherwise.
func (f *frontend) variant() kernels.ComparerVariant {
	if f.tuned != nil {
		return f.tuned.Variant
	}
	return f.variantSet
}

// wgSize is the enqueued local size: the tuner's selection, else the
// configured size, else the frontend's default.
func (f *frontend) wgSize() int {
	if f.tuned != nil {
		return f.tuned.WGSize
	}
	if f.wg > 0 {
		return f.wg
	}
	return f.defaultWG
}

// autotune resolves the engine's kernel selection through the occupancy
// autotuner when it asked for one, before any device pass opens.
func (f *frontend) autotune(req *Request) error {
	if !f.auto || f.dev == nil {
		return nil
	}
	d, err := autotuneDecision(f.dev, req, f.wg, f.calibrate)
	f.tuned = d
	return err
}

// watch points the device's trace track at this engine and marks its fault
// injector, so foldFaults attributes to the run only the faults it fired —
// a reused engine must not re-count earlier runs' faults.
func (f *frontend) watch() int {
	f.dev.SetObs(f.trace, f.metrics, f.track+"/gpu")
	return f.dev.Faults().Mark()
}

// foldFaults folds the faults fired since mark into the run's profile.
func (f *frontend) foldFaults(mark int) {
	if p := f.profile(); p != nil {
		p.addFaults(f.dev.Faults().LogSince(mark))
	}
}

// stream is SimCL's and SimSYCL's Stream: resolve the tuner, then run the
// driver behind the shared pipeline with one scan worker owning the queue
// while the stager creates the next chunk's buffers.
func (f *frontend) stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	if err := f.autotune(req); err != nil {
		return fmt.Errorf("search: %s: autotune: %w", f.name, err)
	}
	p := &pipeline.Pipeline{
		Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
			if f.dev == nil {
				return nil, fmt.Errorf("search: %s: nil device", f.name)
			}
			return newDevicePass(f, plan)
		},
		ScanWorkers: 1,
		Resilience:  resilienceFor(f.res, f.profile),
		Trace:       f.trace,
		Metrics:     f.metrics,
		Track:       f.track,
	}
	if f.dev == nil {
		return p.Stream(ctx, asm, req, emit)
	}
	mark := f.watch()
	err := p.Stream(ctx, asm, req, emit)
	f.foldFaults(mark)
	return err
}

// devicePass implements pipeline.Backend and pipeline.Releaser for both
// frontends. Every buffer is tracked in the live set so Close can release
// whatever an aborted run left behind.
type devicePass struct {
	f    *frontend
	plan *pipeline.Plan
	prof *Profile
	api  hostAPI

	pat, patIdx devBuf

	// finderPred and comparerPred carry the observed hit density across
	// chunks for arena provisioning; see arena.go.
	finderPred   *alloc.Predictor
	comparerPred *alloc.Predictor

	// mu guards live: the stager creates buffers while the scan worker
	// releases others.
	mu   sync.Mutex
	live map[devBuf]struct{}
}

// newDevicePass opens the frontend's adapter (its host-API setup steps) and
// uploads the run-constant pattern tables, the scaffold behind the constant
// address space as in the paper's finder kernel. On any failure the
// partially built state is torn down via Close.
func newDevicePass(f *frontend, plan *pipeline.Plan) (_ *devicePass, err error) {
	d := &devicePass{
		f: f, plan: plan, prof: newProfile(f.metrics),
		finderPred:   newFinderPredictor(),
		comparerPred: newComparerPredictor(),
		live:         make(map[devBuf]struct{}),
	}
	*f.last = d.prof
	if f.tuned != nil {
		d.prof.addTune(f.track, f.tuned)
	}
	defer func() {
		if err != nil {
			d.Close()
		}
	}()
	if d.api, err = f.open(f.dev, f.variant(), d.prof.addAsync); err != nil {
		return nil, err
	}
	pattern := plan.Pattern
	if d.pat, err = d.alloc(bufConst, len(pattern.Codes), pattern.Codes); err != nil {
		return nil, err
	}
	if d.patIdx, err = d.alloc(bufIn, len(pattern.Index), pattern.Index); err != nil {
		return nil, err
	}
	d.prof.addStaged(int64(len(pattern.Codes) + 4*len(pattern.Index)))
	return d, nil
}

// alloc creates a buffer through the adapter and registers it in the live
// set.
func (d *devicePass) alloc(mode bufMode, n int, host any) (devBuf, error) {
	b, err := d.api.alloc(mode, n, host)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.live[b] = struct{}{}
	d.mu.Unlock()
	return b, nil
}

// release releases buffers and drops them from the live set, folding the
// first error; nil buffers are ignored so error paths can release
// unconditionally.
func (d *devicePass) release(bufs ...devBuf) error {
	var err error
	for _, b := range bufs {
		if b == nil {
			continue
		}
		d.mu.Lock()
		delete(d.live, b)
		d.mu.Unlock()
		closeErr(d.api.release(b), &err)
	}
	return err
}

// Close implements pipeline.Backend: release every still-live buffer (the
// pattern tables plus whatever staged chunks never reached Drain), then the
// adapter's run-wide objects, folding the first error.
func (d *devicePass) Close() error {
	d.mu.Lock()
	leaked := make([]devBuf, 0, len(d.live))
	for b := range d.live {
		leaked = append(leaked, b)
	}
	d.mu.Unlock()
	err := d.release(leaked...)
	if d.api != nil {
		closeErr(d.api.close(), &err)
	}
	return err
}

// passStaged is one chunk's state: the sequence buffer created at stage
// time, the device-side compacted candidate buffers the finder arena is
// drained into, and the raw entries accumulated across guides.
type passStaged struct {
	ch            *genome.Chunk
	chr           devBuf
	cLoci, cFlags devBuf
	n             int
	entries       []rawHit
}

// Stage implements pipeline.Backend: create and fill the chunk's sequence
// buffer. The chunk is staged as-is: the kernels' IUPAC tables accept
// soft-masked lower-case bases. This runs on the stager goroutine while the
// scan worker drives kernels over the previous chunk.
func (d *devicePass) Stage(ctx context.Context, ch *genome.Chunk) (pipeline.Staged, error) {
	chr, err := d.alloc(bufIn, len(ch.Data), ch.Data)
	if err != nil {
		return nil, err
	}
	d.prof.addStagedChunk(int64(len(ch.Data)))
	return &passStaged{ch: ch, chr: chr}, nil
}

// geometry sets the launch's ND-range over its n work-items and returns the
// group size the global size is padded to. The padding makes the effective
// local size deterministic even when wg=0 leaves the choice to the OpenCL
// runtime, so the group count — and with it the arena's page tables — is
// known on the host.
func (d *devicePass) geometry(l *launch) (pad int) {
	l.wg = d.f.wgSize()
	pad = l.wg
	if pad <= 0 {
		pad = runtimePad
	}
	l.gws = (l.n + pad - 1) / pad * pad
	return pad
}

// Find implements pipeline.Backend: launch the finder over the padded site
// range with an arena provisioned for the predicted candidate density, then
// compact the claimed pages into the comparer's exact-size input with
// device-to-device copies. Only the arena's claim state crosses back to the
// host; the candidates themselves never do.
func (d *devicePass) Find(ctx context.Context, st pipeline.Staged) (int, error) {
	s := st.(*passStaged)
	sites := s.ch.Body
	if sites == 0 {
		// A final chunk can own zero site starts (its body is shorter than
		// the pattern's overlap); there is nothing to scan, and a zero-sized
		// ND-range cannot be launched.
		return 0, nil
	}
	l := &launch{chr: s.chr, codes: d.pat, index: d.patIdx, plen: d.plan.Pattern.PatternLen, n: sites}
	pad := d.geometry(l)
	layout := finderLayout(d.plan, d.finderPred, s.ch, l.gws/pad, pad, d.f.worstCase)
	geo, err := d.launchArena(ctx, l, finderKernel, "finder", pad, layout, d.api.launchFinder)
	if err != nil {
		return 0, err
	}
	// The finder emits at most one entry per scanned site; a larger total
	// can only be corrupted arena state that slipped past Decode's
	// structural checks. Reject before sizing the gather on it — the
	// readback bytes are already on the profile.
	if geo.Total > sites {
		return 0, corruptCount(d.f.name, "finder", geo.Total, sites)
	}
	s.n = geo.Total
	d.prof.addCandidates(int64(s.n))
	if s.n > 0 {
		// The comparer indexes loci/flags densely in [0, n), so a
		// page-strided view would not do; copying on the device keeps the
		// candidates off the host bus entirely.
		if s.cLoci, err = d.alloc(bufInOut, s.n, []uint32(nil)); err != nil {
			return 0, err
		}
		if s.cFlags, err = d.alloc(bufInOut, s.n, []byte(nil)); err != nil {
			return 0, err
		}
		for i, dst := range []devBuf{s.cLoci, s.cFlags} {
			if err := gather(geo, func(src, at, n int) error {
				return d.api.copy(l.entries[i], dst, src, at, n)
			}); err != nil {
				return 0, err
			}
		}
	}
	if err := d.releaseOut(l); err != nil {
		return 0, err
	}
	d.finderPred.Observe(l.layout.Groups, geo.Claimed)
	return s.n, nil
}

// Compare implements pipeline.Backend: upload one guide's tables, launch the
// comparer with an arena provisioned for the predicted entry density (two
// slots per candidate in the worst case), and gather the entries with one
// ranged read per claimed page. The guide buffers are released on every
// exit.
func (d *devicePass) Compare(ctx context.Context, st pipeline.Staged, qi int) (err error) {
	s := st.(*passStaged)
	g := d.plan.Guides[qi]
	l := &launch{chr: s.chr, plen: g.PatternLen, n: s.n, loci: s.cLoci, flags: s.cFlags,
		threshold: uint16(d.plan.Request.Queries[qi].MaxMismatches)}
	if l.codes, err = d.alloc(bufIn, len(g.Codes), g.Codes); err != nil {
		return err
	}
	defer func() { closeErr(d.release(l.codes), &err) }()
	if l.index, err = d.alloc(bufIn, len(g.Index), g.Index); err != nil {
		return err
	}
	defer func() { closeErr(d.release(l.index), &err) }()
	d.prof.addStaged(int64(len(g.Codes) + 4*len(g.Index)))

	pad := d.geometry(l)
	layout := comparerLayout(d.comparerPred, l.gws/pad, 2*pad, d.f.worstCase)
	geo, err := d.launchArena(ctx, l, comparerKernel, kernels.ComparerKernelName(d.f.variant()), pad, layout,
		d.api.launchComparer)
	if err != nil {
		return err
	}
	// The comparer emits at most one entry per strand per candidate; a
	// larger total can only be corrupted arena state. Reject it before
	// sizing the gather on it.
	cnt := geo.Total
	if cnt > 2*s.n {
		return corruptCount(d.f.name, "comparer", cnt, 2*s.n)
	}
	d.prof.addEntries(int64(cnt))
	if cnt > 0 {
		// Ranged reads gather only each claimed page's valid prefix: the
		// readback traffic is cnt entries however sparsely the pages are
		// filled.
		loci := make([]uint32, cnt)
		mm := make([]uint16, cnt)
		dirs := make([]byte, cnt)
		if err := gather(geo, func(src, at, n int) error {
			if err := d.api.read(l.entries[0], src, loci[at:at+n]); err != nil {
				return err
			}
			if err := d.api.read(l.entries[1], src, mm[at:at+n]); err != nil {
				return err
			}
			return d.api.read(l.entries[2], src, dirs[at:at+n])
		}); err != nil {
			return err
		}
		d.prof.addRead(int64(comparerEntryBytes * cnt))
		for i := range cnt {
			s.entries = append(s.entries, rawHit{qi: qi, pos: int(loci[i]), dir: dirs[i], mm: int(mm[i])})
		}
	}
	if err := d.releaseOut(l); err != nil {
		return err
	}
	d.comparerPred.Observe(l.layout.Groups, geo.Claimed)
	return nil
}

// corruptCount is the corruption guard's error: a decoded entry total beyond
// what the launch could have emitted.
func corruptCount(engine, kernel string, got, limit int) error {
	return fault.Errorf(fault.SiteReadback, fault.Corruption,
		"search: %s: %s entry count %d exceeds the %d possible entries", engine, kernel, got, limit)
}

// launchArena runs one arena-backed launch: it provisions the kernel's entry
// buffers and the arena state at layout, launches, and reads the claim
// state back. An overflowed arena is released, grown and relaunched — a hit
// is never dropped — until the worst-case layout itself overflows. On
// success l's outputs stay live for the caller's gather and releaseOut.
func (d *devicePass) launchArena(ctx context.Context, l *launch, k arenaKernel, name string, pad int,
	layout alloc.Layout, run func(context.Context, *launch) (*gpu.Stats, error)) (*alloc.Geometry, error) {
	for {
		if err := d.newOut(l, k, layout); err != nil {
			return nil, err
		}
		d.prof.addArena(layout.DataBytes(k.entryBytes)+layout.MetaBytes(), 0)
		stats, err := run(ctx, l)
		if err != nil {
			return nil, err
		}
		d.prof.addKernel(name, stats, pad)
		geo, dropped, err := d.readArena(l)
		if err != nil {
			return nil, err
		}
		if dropped == 0 {
			d.prof.addArena(0, int64(geo.Claimed))
			return geo, nil
		}
		if err := d.releaseOut(l); err != nil {
			return nil, err
		}
		grown, ok := alloc.Grow(layout)
		if !ok {
			return nil, fault.Errorf(fault.SiteArena, fault.Overflow,
				"search: %s: %s arena dropped %d entries at worst-case %v", d.f.name, k.role, dropped, layout)
		}
		layout = grown
		d.prof.addOverflowRetry()
	}
}

// newOut allocates a launch's entry buffers and arena state (cursor and
// counters zeroed, page table cleared to NoPage). On error the partial
// allocation is left to Close.
func (d *devicePass) newOut(l *launch, k arenaKernel, layout alloc.Layout) error {
	l.layout, l.entries = layout, nil
	for _, proto := range k.entries {
		b, err := d.alloc(k.mode, layout.Slots(), proto)
		if err != nil {
			return err
		}
		l.entries = append(l.entries, b)
	}
	var err error
	if l.cursor, err = d.alloc(bufInOut, 1, []uint32(nil)); err != nil {
		return err
	}
	if l.count, err = d.alloc(bufInOut, layout.Groups, []uint32(nil)); err != nil {
		return err
	}
	if l.page, err = d.alloc(bufInOut, layout.Groups, alloc.UnsetPages(layout.Groups)); err != nil {
		return err
	}
	if l.ovf, err = d.alloc(bufInOut, 1, []uint32(nil)); err != nil {
		return err
	}
	d.prof.addStaged(layout.MetaBytes())
	return nil
}

// releaseOut releases a launch's entry buffers and arena state.
func (d *devicePass) releaseOut(l *launch) error {
	err := d.release(l.entries...)
	closeErr(d.release(l.cursor, l.count, l.page, l.ovf), &err)
	return err
}

// readArena reads the launch's arena state back. The overflow counter is
// read (and accounted) first: a non-zero value means the launch dropped
// entries and must be retried on a grown arena, returned as dropped with a
// nil geometry. A clean launch's claim state is then read and decoded —
// Decode rejects impossible state as fault.SiteArena corruption, after the
// readback bytes are already on the profile.
func (d *devicePass) readArena(l *launch) (*alloc.Geometry, uint32, error) {
	ovf := make([]uint32, 1)
	if err := d.api.read(l.ovf, 0, ovf); err != nil {
		return nil, 0, err
	}
	d.prof.addRead(4)
	if ovf[0] != 0 {
		return nil, ovf[0], nil
	}
	groups := l.layout.Groups
	cursor, count, pageOf := make([]uint32, 1), make([]uint32, groups), make([]uint32, groups)
	srcs := []devBuf{l.cursor, l.count, l.page}
	for i, dst := range [][]uint32{cursor, count, pageOf} {
		if err := d.api.read(srcs[i], 0, dst); err != nil {
			return nil, 0, err
		}
	}
	d.prof.addRead(4 + 8*int64(groups))
	geo, err := alloc.Decode(cursor[0], count, pageOf, l.layout.PageSlots, l.layout.Pages)
	if err != nil {
		return nil, 0, err
	}
	return geo, 0, nil
}

// gather walks the claimed pages in owning-group order — so the gathered
// entries are schedule-independent — calling f with each page's source
// offset, its offset in the compact destination and its entry count.
func gather(geo *alloc.Geometry, f func(src, at, n int) error) error {
	at := 0
	for _, p := range geo.Order {
		n := geo.Counts[p]
		if err := f(p*geo.PageSlots, at, n); err != nil {
			return err
		}
		at += n
	}
	return nil
}

// Drain implements pipeline.Backend: render the accumulated entries
// (rejecting corrupted readbacks) and release the chunk's buffers. A
// corruption error keeps the buffers for Release or Close.
func (d *devicePass) Drain(ctx context.Context, st pipeline.Staged, r *pipeline.SiteRenderer) ([]Hit, error) {
	s := st.(*passStaged)
	hits, err := drainEntries(r, s.ch, d.plan.Guides, s.entries)
	if err != nil {
		return nil, err
	}
	if err := d.release(s.chr, s.cLoci, s.cFlags); err != nil {
		return nil, err
	}
	return hits, nil
}

// Release implements pipeline.Releaser: free an abandoned staged handle's
// buffers as soon as the resilient executor gives up on an attempt, rather
// than holding them against the device memory budget until Close. Errors
// are swallowed; Close's sweep stays the backstop.
func (d *devicePass) Release(st pipeline.Staged) {
	if s, ok := st.(*passStaged); ok && s != nil {
		_ = d.release(s.chr, s.cLoci, s.cFlags)
	}
}
