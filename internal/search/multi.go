package search

import (
	"context"
	"errors"
	"fmt"

	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/kernels"
	"casoffinder/internal/obs"
	"casoffinder/internal/pipeline"
	"casoffinder/internal/sched"
	"casoffinder/internal/tune"
)

// MultiSYCL extends the SYCL application to several devices — the paper's
// stated limitation ("The SYCL application currently executes on a single
// GPU device", §IV.A) turned future work. The fleet runs behind the
// work-stealing scheduler (internal/sched): each device's deque is seeded
// with a cost-model-proportional shard of the chunk plan — the per-chunk
// estimate from internal/timing for the device's Table VII spec and the
// selected comparer variant — and idle devices steal half the tail of the
// most loaded deque, so a heterogeneous fleet stays busy end to end
// instead of waiting on its slowest member.
//
// Resilience is device-level: with a policy set, a chunk that exhausts its
// retries (or trips the watchdog, or returns corrupted data) evicts its
// device and the device's remaining work redistributes to the survivors;
// only a fully evicted fleet falls back to the CPU SWAR engine, chunk by
// chunk. Hits still flow through the pipeline's ordered-emit contract, so
// the stream is byte-identical to a single-device run regardless of which
// device ran which chunk.
type MultiSYCL struct {
	// Devices are the simulated GPUs to spread the search over.
	Devices []*gpu.Device
	// Variant selects the comparer kernel on every device.
	Variant kernels.ComparerVariant
	// WorkGroupSize overrides the launch local size (0 means 256).
	WorkGroupSize int
	// Auto resolves the comparer variant and work-group size per device
	// through the occupancy autotuner (internal/tune) at Stream start: a
	// heterogeneous fleet can run a different kernel on each member, and
	// the scheduler's shard weights are seeded from the tuned estimates.
	// Variant is ignored; WorkGroupSize (when set) narrows the tuner to
	// that local size. Calibrate additionally runs the tuner's online
	// measured pass per device type. Output stays byte-identical.
	Auto      bool
	Calibrate bool
	// WorstCaseArena pins every device's hit-buffer arenas to the
	// worst-case layout instead of density-driven provisioning; see
	// SimCL.WorstCaseArena.
	WorstCaseArena bool
	// Resilience, when set, is the fleet's device-level policy: per-chunk
	// transient retries on the owning device, then eviction; a fully
	// evicted fleet fails over to the CPU engine (unless a custom
	// Fallback is configured).
	Resilience *pipeline.Resilience
	// Static pins every chunk to its cost-model shard — no stealing, no
	// eviction, per-chunk failover — the pre-scheduler behaviour, kept
	// for comparison benchmarks.
	Static bool
	// Trace and Metrics, when set, are shared by every per-device
	// sub-engine: each device's spans land on its own "sycl-sim[i]"
	// track, scheduler events (steal, evict, failover) on the same
	// tracks, and the counters sum across devices in one registry.
	Trace   *obs.Tracer
	Metrics *obs.Metrics

	profile *Profile
}

// Name implements Engine.
func (e *MultiSYCL) Name() string { return "sycl-multi" }

// LastProfile implements Profiler: the merged profile of all devices, with
// the scheduler's steal/eviction accounting folded in.
func (e *MultiSYCL) LastProfile() *Profile { return e.profile }

// Run implements Engine.
func (e *MultiSYCL) Run(asm *genome.Assembly, req *Request) ([]Hit, error) {
	return Collect(context.Background(), e, asm, req)
}

func (e *MultiSYCL) wgSize() int {
	if e.WorkGroupSize > 0 {
		return e.WorkGroupSize
	}
	return DefaultSYCLWorkGroup
}

// deviceWeights derives each device's scheduling weight from the timing
// model: the inverse of the estimated cost of one chunk on that device,
// with the finder/comparer launch contexts (occupancy, register pressure)
// built by the autotuner's cost model from internal/isa. When the tuner ran
// (tuned non-nil), each device is priced at its own selected (variant,
// work-group size) pair, so a heterogeneous fleet's shards reflect the
// kernels it will actually launch. A faster device gets a proportionally
// larger initial shard.
func (e *MultiSYCL) deviceWeights(req *Request, tuned []*tune.Decision) []float64 {
	plen := len(req.Pattern)
	chunkBytes := req.ChunkBytes
	if chunkBytes <= 0 {
		chunkBytes = pipeline.DefaultChunkBytes
	}
	weights := make([]float64, len(e.Devices))
	for i, d := range e.Devices {
		v, wg := e.Variant, e.wgSize()
		if tuned != nil && tuned[i] != nil {
			v, wg = tuned[i].Variant, tuned[i].WGSize
		}
		est := tune.Estimate(d.Spec(), v, wg, plen, len(req.Queries))
		if sec := est.Seconds(chunkBytes); sec > 0 {
			weights[i] = 1 / sec
		}
	}
	return weights
}

// schedPolicy copies the engine policy for the scheduler, defaulting the
// fallback to the CPU SWAR engine (byte-identical hit stream, so a
// failed-over chunk preserves the golden output). Unlike resilienceFor it
// does not chain OnReport: the scheduler reports through sched.Report.
func (e *MultiSYCL) schedPolicy() *pipeline.Resilience {
	if e.Resilience == nil {
		return nil
	}
	r := *e.Resilience
	if r.Fallback == nil {
		r.Fallback = func(plan *pipeline.Plan) (pipeline.Backend, error) {
			return newCPUBackend(plan), nil
		}
	}
	return &r
}

// Stream implements Engine: compile once, then run the chunk plan across
// the fleet through the work-stealing executor. Hits are emitted in chunk
// order as chunks settle — the pipeline's ordered-emit contract — so the
// stream matches a single-device run byte for byte.
func (e *MultiSYCL) Stream(ctx context.Context, asm *genome.Assembly, req *Request, emit func(Hit) error) error {
	if err := req.Validate(); err != nil {
		return err
	}
	if len(e.Devices) == 0 {
		return errors.New("search: sycl-multi: no devices")
	}
	for i, d := range e.Devices {
		if d == nil {
			return fmt.Errorf("search: sycl-multi: device %d is nil", i)
		}
	}

	// Resolve the tuner per device before seeding the fleet: repeated
	// device types hit the tune package's memoized decision, so an N-GPU
	// homogeneous fleet scores (and calibrates) once.
	var tuned []*tune.Decision
	if e.Auto {
		tuned = make([]*tune.Decision, len(e.Devices))
		for i, dev := range e.Devices {
			d, err := autotuneDecision(dev, req, e.WorkGroupSize, e.Calibrate)
			if err != nil {
				return fmt.Errorf("search: %s: autotune device %d: %w", e.Name(), i, err)
			}
			tuned[i] = d
		}
	}

	// One SimSYCL shell per device: the scheduler opens its syclBackend
	// (at most once per run), and the shell's profile collects what that
	// device did. Sub-engines share the run's tracer and metrics.
	subEngines := make([]*SimSYCL, len(e.Devices))
	marks := make([]int, len(e.Devices))
	fleet := make([]sched.Device, len(e.Devices))
	weights := e.deviceWeights(req, tuned)
	for i, dev := range e.Devices {
		sub := &SimSYCL{
			Device: dev, Variant: e.Variant, WorkGroupSize: e.WorkGroupSize,
			WorstCaseArena: e.WorstCaseArena,
			Trace:          e.Trace, Metrics: e.Metrics, Track: fmt.Sprintf("sycl-sim[%d]", i),
		}
		if tuned != nil {
			sub.Auto, sub.Calibrate, sub.tuned = true, e.Calibrate, tuned[i]
		}
		subEngines[i] = sub
		dev.SetObs(e.Trace, e.Metrics, sub.track()+"/gpu")
		// Mark each injector before the run so only this run's fault
		// delta is folded into the profile.
		marks[i] = dev.Faults().Mark()
		fleet[i] = sched.Device{
			Name:   sub.track(),
			Weight: weights[i],
			Open: func(plan *pipeline.Plan) (pipeline.Backend, error) {
				return newSYCLBackend(sub, plan)
			},
		}
	}

	var schedRep *sched.Report
	exec := &sched.Executor{
		Devices:  fleet,
		Policy:   e.schedPolicy(),
		Static:   e.Static,
		Trace:    e.Trace,
		Metrics:  e.Metrics,
		Track:    e.Name(),
		OnReport: func(rep *sched.Report) { schedRep = rep },
	}
	p := &pipeline.Pipeline{
		Executor: exec,
		Trace:    e.Trace,
		Metrics:  e.Metrics,
		Track:    e.Name(),
	}
	err := p.Stream(ctx, asm, req, emit)

	// Fold each device's fault delta into that device's own profile —
	// which carries the shared metrics registry, so MetricFaults stays in
	// step — then merge everything. The merged profile carries no
	// registry of its own: every count already streamed in live, and
	// folding again here would double-count.
	merged := newProfile(nil)
	for i, sub := range subEngines {
		prof := sub.LastProfile()
		if prof == nil {
			// The scheduler never opened this device (empty shard, no
			// steal); it cannot have fired faults either.
			continue
		}
		prof.addFaults(e.Devices[i].Faults().LogSince(marks[i]))
		merged.merge(prof)
	}
	if schedRep != nil {
		merged.addSched(schedRep)
	}
	e.profile = merged
	return err
}
