package search

import (
	"reflect"
	"runtime"
	"testing"

	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// TestSimStatsScheduleDeterministic: the simulator engines' launch Stats
// are a pure function of the input. SimCL and SimSYCL run a multi-chunk,
// multi-guide search three times each at GOMAXPROCS 1, 2 and 4 (with as
// many device workers), and every run must report the Profile.Kernels and
// hits of the first. Arena pages are claimed in whatever order the
// work-groups happen to run, so this holds only because every gather walks
// the claimed pages in owning-group order: the comparer's compacted input,
// and with it the group each entry lands in and the claim atomics it costs,
// must not depend on scheduling.
func TestSimStatsScheduleDeterministic(t *testing.T) {
	// Chunks of 4 KiB hold hundreds of PAM candidates, so the finder spans
	// many work-groups that race for arena pages; low mismatch limits keep
	// hits sparse, so which comparer groups emit (and claim a page) depends
	// on the order the candidates were compacted in.
	asm := testAssembly(t, 29, []int{20000, 9000}, testSite)
	req := testRequest(1)
	req.ChunkBytes = 4096
	req.Queries = append(req.Queries, Query{Guide: "GACCACAGTANN", MaxMismatches: 2})
	type profiled interface {
		Engine
		LastProfile() *Profile
	}
	frontends := []struct {
		name string
		eng  func(workers int) profiled
	}{
		{"opencl", func(w int) profiled {
			return &SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(w)), Variant: kernels.Base}
		}},
		{"sycl", func(w int) profiled {
			return &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(w)), Variant: kernels.Opt3, WorkGroupSize: 64}
		}},
	}
	for _, fe := range frontends {
		t.Run(fe.name, func(t *testing.T) {
			var want map[string]gpu.Stats
			var wantHits []Hit
			for _, procs := range []int{1, 2, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					for run := 0; run < 3; run++ {
						eng := fe.eng(procs)
						hits, err := eng.Run(asm, req)
						if err != nil {
							t.Fatalf("GOMAXPROCS=%d run %d: %v", procs, run, err)
						}
						got := eng.LastProfile().Kernels
						if want == nil {
							if len(hits) == 0 {
								t.Fatal("fixture produced no hits; the comparer arena would stay empty")
							}
							want, wantHits = got, hits
							continue
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("GOMAXPROCS=%d run %d: kernel stats\n%+v\nwant\n%+v", procs, run, got, want)
						}
						if !equalHits(hits, wantHits) {
							t.Errorf("GOMAXPROCS=%d run %d: %d hits, want %d", procs, run, len(hits), len(wantHits))
						}
					}
				}()
			}
		})
	}
}
