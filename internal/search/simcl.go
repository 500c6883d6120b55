package search

import (
	"cmp"
	"context"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/opencl"
	"casoffinder/internal/pipeline"
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
}

// Name implements Engine.
func (e *SimCL) Name() string { return "opencl-sim" }

// LastProfile implements Profiler.
func (e *SimCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *SimCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

// Stream implements Engine by driving the two kernels through the OpenCL
// host API behind the device-pass driver.
func (e *SimCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	return e.frontend().stream(ctx, asm, req, emit)
}

func (e *SimCL) frontend() *frontend {
	return &frontend{
		name: e.Name(), track: cmp.Or(e.Track, e.Name()), dev: e.Device,
		variantSet: e.Variant, wg: e.WorkGroupSize,
		auto: e.Auto, calibrate: e.Calibrate, worstCase: e.WorstCaseArena,
		res: e.Resilience, trace: e.Trace, metrics: e.Metrics,
		open: openCL, last: &e.profile,
	}
}

// clAPI is the OpenCL host-API adapter. Opening it performs steps 1-8 of
// the host lifecycle (platform, device, context, queue, program, build,
// kernels); every launch sets the kernel's arguments one by one and
// enqueues it on the in-order queue; buffers are created with explicit
// memory flags and released explicitly (Table II).
type clAPI struct {
	ctx      *opencl.Context
	queue    *opencl.CommandQueue
	prog     *opencl.Program
	finder   *opencl.Kernel
	comparer *opencl.Kernel
}

func openCL(dev *gpu.Device, v kernels.ComparerVariant, _ func()) (_ hostAPI, err error) {
	a := &clAPI{}
	defer func() {
		if err != nil {
			a.close()
		}
	}()
	// Steps 1-4: platform, device, context, queue.
	platform := opencl.NewPlatform("ROCm", "AMD", dev)
	devs, err := platform.GetDevices(opencl.DeviceTypeGPU)
	if err != nil {
		return nil, err
	}
	if a.ctx, err = opencl.CreateContext(devs...); err != nil {
		return nil, err
	}
	if a.queue, err = a.ctx.CreateCommandQueue(devs[0]); err != nil {
		return nil, err
	}
	// Steps 6-8: program and kernels.
	if a.prog, err = a.ctx.CreateProgramWithSource(kernels.CLSource()); err != nil {
		return nil, err
	}
	if err = a.prog.Build("-O3"); err != nil {
		return nil, err
	}
	if a.finder, err = a.prog.CreateKernel("finder"); err != nil {
		return nil, err
	}
	if a.comparer, err = a.prog.CreateKernel(kernels.ComparerKernelName(v)); err != nil {
		return nil, err
	}
	return a, nil
}

// clFlags maps a buffer's use to its clCreateBuffer memory flags.
var clFlags = [...]opencl.MemFlags{
	bufIn:    opencl.MemReadOnly,
	bufConst: opencl.MemReadOnly | opencl.MemUseConstant,
	bufInOut: opencl.MemReadWrite,
	bufOut:   opencl.MemWriteOnly,
}

// alloc is step 5: clCreateBuffer, with CL_MEM_COPY_HOST_PTR for uploads.
func (a *clAPI) alloc(mode bufMode, n int, host any) (devBuf, error) {
	switch h := host.(type) {
	case []byte:
		return clCreate(a.ctx, clFlags[mode], n, h)
	case []uint16:
		return clCreate(a.ctx, clFlags[mode], n, h)
	case []uint32:
		return clCreate(a.ctx, clFlags[mode], n, h)
	case []int32:
		return clCreate(a.ctx, clFlags[mode], n, h)
	}
	return nil, fmt.Errorf("search: opencl: no buffer of %T", host)
}

func clCreate[T any](ctx *opencl.Context, flags opencl.MemFlags, n int, host []T) (devBuf, error) {
	if host != nil {
		flags |= opencl.MemCopyHostPtr
	}
	m, err := opencl.CreateBuffer(ctx, flags, n, host)
	if err != nil {
		return nil, err
	}
	return clMem[T]{m}, nil
}

// clMem is a memory object with its element type. A cl_mem is untyped, so
// the adapter keeps T beside it to reach the typed copy and read calls.
type clMem[T any] struct{ m *opencl.Mem }

// clTyped is clMem's face across element types.
type clTyped interface {
	mem() *opencl.Mem
	copyTo(q *opencl.CommandQueue, dst devBuf, srcOff, dstOff, n int) error
	readAt(q *opencl.CommandQueue, off int, dst any) error
}

func (b clMem[T]) mem() *opencl.Mem { return b.m }

func (b clMem[T]) copyTo(q *opencl.CommandQueue, dst devBuf, srcOff, dstOff, n int) error {
	_, err := opencl.EnqueueCopyBuffer[T](q, b.m, mem(dst), srcOff, dstOff, n)
	return err
}

func (b clMem[T]) readAt(q *opencl.CommandQueue, off int, dst any) error {
	d := dst.([]T)
	_, err := opencl.EnqueueReadBuffer(q, b.m, true, off, len(d), d)
	return err
}

func mem(b devBuf) *opencl.Mem { return b.(clTyped).mem() }

// launchFinder sets the finder's arguments and enqueues it (steps 9-10).
func (a *clAPI) launchFinder(ctx context.Context, l *launch) (*gpu.Stats, error) {
	return a.enqueue(ctx, a.finder, l, []any{
		mem(l.chr), mem(l.codes), mem(l.index),
		int32(l.plen), uint32(l.n),
		mem(l.entries[0]), mem(l.entries[1]),
		int32(l.layout.PageSlots), int32(l.layout.Pages),
		mem(l.cursor), mem(l.count), mem(l.page), mem(l.ovf),
	}, kernels.FinderArgLocalPat, kernels.FinderArgLocalPatIndex)
}

// launchComparer sets one guide's comparer arguments and enqueues it.
func (a *clAPI) launchComparer(ctx context.Context, l *launch) (*gpu.Stats, error) {
	return a.enqueue(ctx, a.comparer, l, []any{
		uint32(l.n), mem(l.chr), mem(l.loci), mem(l.entries[0]),
		mem(l.codes), mem(l.index),
		int32(l.plen), l.threshold,
		mem(l.flags), mem(l.entries[1]), mem(l.entries[2]),
		int32(l.layout.PageSlots), int32(l.layout.Pages),
		mem(l.cursor), mem(l.count), mem(l.page), mem(l.ovf),
	}, kernels.ComparerArgLocalComp, kernels.ComparerArgLocalCompIndex)
}

// enqueue sets a kernel's arguments (clSetKernelArg) and the sizes of its
// two __local arguments, the work-group's copies of the codes and index
// table, then enqueues it over the launch's global size
// (clEnqueueNDRangeKernel; wg 0 lets the runtime choose the local size) and
// waits for its event (step 12).
func (a *clAPI) enqueue(ctx context.Context, k *opencl.Kernel, l *launch, args []any, localCodes, localIndex int) (*gpu.Stats, error) {
	for i, arg := range args {
		if err := k.SetArg(i, arg); err != nil {
			return nil, err
		}
	}
	if err := k.SetArgLocal(localCodes, 2*l.plen); err != nil {
		return nil, err
	}
	if err := k.SetArgLocal(localIndex, 4*2*l.plen); err != nil {
		return nil, err
	}
	ev, err := a.queue.EnqueueNDRangeKernelCtx(ctx, k, l.gws, l.wg)
	if err != nil {
		return nil, err
	}
	if err := ev.Wait(); err != nil {
		return nil, err
	}
	return ev.Stats(), nil
}

// copy is clEnqueueCopyBuffer.
func (a *clAPI) copy(src, dst devBuf, srcOff, dstOff, n int) error {
	return src.(clTyped).copyTo(a.queue, dst, srcOff, dstOff, n)
}

// read is a blocking clEnqueueReadBuffer over the range (step 11).
func (a *clAPI) read(src devBuf, off int, dst any) error {
	return src.(clTyped).readAt(a.queue, off, dst)
}

// release is clReleaseMemObject.
func (a *clAPI) release(b devBuf) error { return mem(b).Release() }

// close is step 13: release the kernels, program, queue and context,
// folding the first error.
func (a *clAPI) close() (err error) {
	if a.finder != nil {
		closeErr(a.finder.Release(), &err)
	}
	if a.comparer != nil {
		closeErr(a.comparer.Release(), &err)
	}
	if a.prog != nil {
		closeErr(a.prog.Release(), &err)
	}
	if a.queue != nil {
		closeErr(a.queue.Release(), &err)
	}
	if a.ctx != nil {
		closeErr(a.ctx.Release(), &err)
	}
	return err
}
