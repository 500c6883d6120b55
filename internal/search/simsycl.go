package search

import (
	"cmp"
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/alloc"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/sycl"
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
}

// DefaultSYCLWorkGroup is the local work size of the SYCL application:
// "the local work size (work-group size) is 256 for launching both SYCL
// kernels" (§IV.A).
const DefaultSYCLWorkGroup = 256

// Name implements Engine.
func (e *SimSYCL) Name() string { return "sycl-sim" }

// LastProfile implements Profiler.
func (e *SimSYCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *SimSYCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by submitting the SYCL command groups behind
// the device-pass driver.
func (e *SimSYCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	return e.frontend().stream(ctx, asm, req, emit)
}

func (e *SimSYCL) frontend() *frontend {
	return &frontend{
		name: e.Name(), track: cmp.Or(e.Track, e.Name()), dev: e.Device,
		variantSet: e.Variant, wg: e.WorkGroupSize, defaultWG: DefaultSYCLWorkGroup,
		auto: e.Auto, calibrate: e.Calibrate, worstCase: e.WorstCaseArena,
		res: e.Resilience, trace: e.Trace, metrics: e.Metrics,
		open: openSYCL, last: &e.profile,
	}
}

// syclAPI is the SYCL host-API adapter: a queue from a device selector
// (steps 1-2 of the SYCL column of Table I), typed buffers the runtime
// materialises on first use and reclaims on Destroy (Table II), command
// groups whose accessors order the work and whose local accessors replace
// __local kernel arguments (Table VI), and cgh.copy and ranged host
// accessors for the transfers (Table III).
type syclAPI struct {
	queue   *sycl.Queue
	variant kernels.ComparerVariant
}

func openSYCL(dev *gpu.Device, v kernels.ComparerVariant, onAsync func()) (hostAPI, error) {
	q, err := sycl.NewQueue(sycl.GPUSelector{}, dev)
	if err != nil {
		return nil, err
	}
	// The async handler is how the migrated program observes asynchronous
	// exceptions (§III): every delivery is counted in the profile; the
	// errors themselves still surface on the events the adapter waits on.
	q.SetAsyncHandler(func(*sycl.AsyncError) { onAsync() })
	return &syclAPI{queue: q, variant: v}, nil
}

// alloc constructs a buffer<T>: sized ("buffer<T> d(WS)"), over host memory
// ("buffer<T> d(h, WS)"), or a constant buffer for the pattern scaffold.
func (a *syclAPI) alloc(mode bufMode, n int, host any) (devBuf, error) {
	switch h := host.(type) {
	case []byte:
		return syclBuffer(mode, n, h)
	case []uint16:
		return syclBuffer(mode, n, h)
	case []uint32:
		return syclBuffer(mode, n, h)
	case []int32:
		return syclBuffer(mode, n, h)
	}
	return nil, fmt.Errorf("search: sycl: no buffer of %T", host)
}

func syclBuffer[T any](mode bufMode, n int, host []T) (devBuf, error) {
	if mode == bufConst {
		return sycl.NewConstantBuffer(host)
	}
	if host != nil {
		return sycl.NewBufferFrom(host)
	}
	return sycl.NewBuffer[T](n)
}

// accessors declares a command group's accessors, keeping the first error
// so a launch can declare all of them before checking once.
type accessors struct {
	h   *sycl.Handler
	err error
}

func access[T any](cg *accessors, buf devBuf, mode sycl.AccessMode) []T {
	if cg.err != nil {
		return nil
	}
	acc, err := sycl.Access(cg.h, buf.(*sycl.Buffer[T]), mode)
	if err != nil {
		cg.err = err
		return nil
	}
	return acc.Slice()
}

func local[T any](cg *accessors, n int) *sycl.LocalAccessor[T] {
	if cg.err != nil {
		return nil
	}
	la, err := sycl.NewLocalAccessor[T](cg.h, n)
	cg.err = err
	return la
}

// arenaDevice binds the arena state read-write and returns the
// kernel-visible view over the accessors (nil once binding failed).
func arenaDevice(cg *accessors, l *launch) *alloc.Device {
	cursor := access[uint32](cg, l.cursor, sycl.ReadWrite)
	count := access[uint32](cg, l.count, sycl.ReadWrite)
	pageOf := access[uint32](cg, l.page, sycl.ReadWrite)
	ovf := access[uint32](cg, l.ovf, sycl.ReadWrite)
	if cg.err != nil {
		return nil
	}
	return &alloc.Device{
		PageSlots: l.layout.PageSlots,
		Pages:     l.layout.Pages,
		Cursor:    &cursor[0],
		Count:     count,
		PageOf:    pageOf,
		Overflow:  &ovf[0],
	}
}

// launchFinder submits the finder command group: accessors, two local
// accessors, and a two-phase parallel_for over the nd_range.
func (a *syclAPI) launchFinder(ctx context.Context, l *launch) (*gpu.Stats, error) {
	return a.submit(ctx, func(h *sycl.Handler) error {
		cg := &accessors{h: h}
		fa := &kernels.FinderArgs{
			Chr: access[byte](cg, l.chr, sycl.Read),
			Pattern: &kernels.PatternPair{
				Codes:      access[byte](cg, l.codes, sycl.Read),
				Index:      access[int32](cg, l.index, sycl.Read),
				PatternLen: l.plen,
			},
			Sites: l.n,
			Loci:  access[uint32](cg, l.entries[0], sycl.Write),
			Flags: access[byte](cg, l.entries[1], sycl.Write),
			Arena: arenaDevice(cg, l),
		}
		lPat := local[byte](cg, 2*l.plen)
		lPatIdx := local[int32](cg, 2*l.plen)
		if cg.err != nil {
			return cg.err
		}
		return h.ParallelForPhases("finder", gpu.R1(l.gws), gpu.R1(l.wg), []func(it *sycl.NDItem){
			func(it *sycl.NDItem) { kernels.FinderStage(it.Item(), fa, lPat.Slice(it), lPatIdx.Slice(it)) },
			func(it *sycl.NDItem) { kernels.FinderScan(it.Item(), fa, lPat.Slice(it), lPatIdx.Slice(it)) },
		})
	})
}

// launchComparer submits one guide's comparer command group.
func (a *syclAPI) launchComparer(ctx context.Context, l *launch) (*gpu.Stats, error) {
	phases := kernels.ComparerPhases(a.variant)
	return a.submit(ctx, func(h *sycl.Handler) error {
		cg := &accessors{h: h}
		ca := &kernels.ComparerArgs{
			Chr:       access[byte](cg, l.chr, sycl.Read),
			Loci:      access[uint32](cg, l.loci, sycl.Read),
			Flags:     access[byte](cg, l.flags, sycl.Read),
			LociCount: uint32(l.n),
			Guide: &kernels.PatternPair{
				Codes:      access[byte](cg, l.codes, sycl.Read),
				Index:      access[int32](cg, l.index, sycl.Read),
				PatternLen: l.plen,
			},
			Threshold: l.threshold,
			MMLoci:    access[uint32](cg, l.entries[0], sycl.Write),
			MMCount:   access[uint16](cg, l.entries[1], sycl.Write),
			Direction: access[byte](cg, l.entries[2], sycl.Write),
			Arena:     arenaDevice(cg, l),
		}
		lComp := local[byte](cg, 2*l.plen)
		lCompIdx := local[int32](cg, 2*l.plen)
		if cg.err != nil {
			return cg.err
		}
		return h.ParallelForPhases(kernels.ComparerKernelName(a.variant), gpu.R1(l.gws), gpu.R1(l.wg), []func(it *sycl.NDItem){
			func(it *sycl.NDItem) { phases[0](it.Item(), ca, lComp.Slice(it), lCompIdx.Slice(it)) },
			func(it *sycl.NDItem) { phases[1](it.Item(), ca, lComp.Slice(it), lCompIdx.Slice(it)) },
		})
	})
}

// submit submits a kernel command group and waits on its event.
func (a *syclAPI) submit(ctx context.Context, cgf func(h *sycl.Handler) error) (*gpu.Stats, error) {
	ev := a.queue.SubmitCtx(ctx, cgf)
	if err := ev.Wait(); err != nil {
		return nil, err
	}
	return ev.Stats(), nil
}

// copy submits a device-side copy command group.
func (a *syclAPI) copy(src, dst devBuf, srcOff, dstOff, n int) error {
	switch s := src.(type) {
	case *sycl.Buffer[uint32]:
		return syclCopy(a.queue, s, dst.(*sycl.Buffer[uint32]), srcOff, dstOff, n)
	case *sycl.Buffer[byte]:
		return syclCopy(a.queue, s, dst.(*sycl.Buffer[byte]), srcOff, dstOff, n)
	}
	return fmt.Errorf("search: sycl: no device copy of %T", src)
}

// syclCopy is cgh.copy(srcAccessor, dstAccessor) over ranged accessors,
// waited on so the caller may destroy the source afterwards.
func syclCopy[T any](q *sycl.Queue, src, dst *sycl.Buffer[T], srcOff, dstOff, n int) error {
	return q.Submit(func(h *sycl.Handler) error {
		srcAcc, err := sycl.AccessRange(h, src, sycl.Read, n, srcOff)
		if err != nil {
			return err
		}
		dstAcc, err := sycl.AccessRange(h, dst, sycl.Write, n, dstOff)
		if err != nil {
			return err
		}
		return sycl.Copy(h, dstAcc, srcAcc)
	}).Wait()
}

// read reads back through a ranged host accessor.
func (a *syclAPI) read(src devBuf, off int, dst any) error {
	switch d := dst.(type) {
	case []uint32:
		return syclRead(src, off, d)
	case []uint16:
		return syclRead(src, off, d)
	case []byte:
		return syclRead(src, off, d)
	}
	return fmt.Errorf("search: sycl: no read into %T", dst)
}

func syclRead[T any](src devBuf, off int, dst []T) error {
	got, err := src.(*sycl.Buffer[T]).SnapshotRange(off, len(dst))
	if err != nil {
		return err
	}
	copy(dst, got)
	return nil
}

// release ends a buffer's lifetime, the destructor of Table II.
func (a *syclAPI) release(b devBuf) error { return b.(interface{ Destroy() error }).Destroy() }

// close has nothing to release: the runtime owns the queue.
func (a *syclAPI) close() error { return nil }
