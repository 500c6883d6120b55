package alloc

import (
	"errors"
	"sort"
	"testing"

	"casoffinder/internal/fault"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
)

func testDevice() *gpu.Device {
	return gpu.New(device.MI100(), gpu.WithWorkers(4))
}

func TestLayoutConstructors(t *testing.T) {
	w := WorstCase(10, 64)
	if w.Pages != 10 || w.PageSlots != 64 || w.Groups != 10 {
		t.Fatalf("WorstCase(10, 64) = %+v", w)
	}
	if w.Slots() != 640 || w.DataBytes(5) != 3200 {
		t.Errorf("Slots = %d, DataBytes(5) = %d", w.Slots(), w.DataBytes(5))
	}
	if w.MetaBytes() != 8*10+8 {
		t.Errorf("MetaBytes = %d, want %d", w.MetaBytes(), 8*10+8)
	}
	if z := WorstCase(0, 64); z.Pages != 1 || z.Groups != 1 {
		t.Errorf("WorstCase clamps zero groups to one: %+v", z)
	}

	// SizedPages clamps to [1, worst case].
	if s := SizedPages(3, 10, 64); s.Pages != 3 || s.Groups != 10 {
		t.Errorf("SizedPages(3) = %+v", s)
	}
	if s := SizedPages(0, 10, 64); s.Pages != 1 {
		t.Errorf("SizedPages(0) = %+v, want one page", s)
	}
	if s := SizedPages(99, 10, 64); s.Pages != 10 {
		t.Errorf("SizedPages(99) = %+v, want worst-case cap", s)
	}
}

// TestGrowDoublesToWorstCase pins the bounded doubling schedule: every Grow
// doubles, the cap is the worst case, and growth at the cap reports ok=false
// — the invariant that makes the overflow-retry loop terminate.
func TestGrowDoublesToWorstCase(t *testing.T) {
	l := SizedPages(1, 13, 64)
	var trail []int
	for {
		next, ok := Grow(l)
		if !ok {
			break
		}
		if next.Pages <= l.Pages {
			t.Fatalf("Grow did not grow: %d -> %d", l.Pages, next.Pages)
		}
		l = next
		trail = append(trail, l.Pages)
		if len(trail) > 10 {
			t.Fatalf("doubling schedule did not terminate: %v", trail)
		}
	}
	want := []int{2, 4, 8, 13}
	if len(trail) != len(want) {
		t.Fatalf("growth trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("growth trail = %v, want %v", trail, want)
		}
	}
	if _, ok := Grow(l); ok {
		t.Error("Grow at the worst case reported ok")
	}
}

// TestClaimCompactsSparseEmissions launches a kernel where only a minority
// of groups emit, into an arena provisioned below one-page-per-group, and
// checks the full round trip: no overflow, Decode geometry matches the
// emission pattern, and Gather recovers exactly the emitted values.
func TestClaimCompactsSparseEmissions(t *testing.T) {
	const (
		groups    = 16
		wg        = 64
		pageSlots = wg
	)
	// Groups 3, 7 and 11 emit: every 4th item in group 3 and 11, every item
	// in group 7.
	emits := func(group, local int) bool {
		switch group {
		case 3, 11:
			return local%4 == 0
		case 7:
			return true
		}
		return false
	}
	layout := SizedPages(4, groups, pageSlots)
	h := NewHost(layout)
	data := make([]uint32, layout.Slots())
	dev := h.Device()
	if _, err := testDevice().Launch(gpu.LaunchSpec{
		Name:   "emit",
		Global: gpu.R1(groups * wg),
		Local:  gpu.R1(wg),
		Kernel: func(g *gpu.Group) gpu.WorkItemFunc {
			return func(it *gpu.Item) {
				if !emits(it.GroupID(0), it.LocalID(0)) {
					return
				}
				slot := dev.Claim(it)
				if slot < 0 {
					return
				}
				data[slot] = uint32(it.GlobalID(0))
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if h.Overflow[0] != 0 {
		t.Fatalf("overflow = %d on a sufficient arena", h.Overflow[0])
	}
	geo, err := h.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if geo.Claimed != 3 {
		t.Fatalf("claimed %d pages, want 3 (one per emitting group)", geo.Claimed)
	}
	wantTotal := wg/4 + wg + wg/4
	if geo.Total != wantTotal {
		t.Fatalf("decoded %d entries, want %d", geo.Total, wantTotal)
	}
	got := Gather(geo, data, nil)
	var want []uint32
	for g := 0; g < groups; g++ {
		for l := 0; l < wg; l++ {
			if emits(g, l) {
				want = append(want, uint32(g*wg+l))
			}
		}
	}
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if len(got) != len(want) {
		t.Fatalf("gathered %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry set diverges at %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// TestClaimOverflowGrowRetry drives the full host loop the backends run:
// an under-provisioned launch overflows (counted, entries dropped, no
// corruption), the layout doubles, and the retried launch at a sufficient
// size recovers every entry.
func TestClaimOverflowGrowRetry(t *testing.T) {
	const (
		groups    = 8
		wg        = 32
		pageSlots = wg
	)
	layout := SizedPages(1, groups, pageSlots) // every group emits: 8 needed
	d := testDevice()
	for attempt := 0; ; attempt++ {
		if attempt > 8 {
			t.Fatal("grow-retry loop did not terminate")
		}
		h := NewHost(layout)
		data := make([]uint32, layout.Slots())
		dev := h.Device()
		if _, err := d.Launch(gpu.LaunchSpec{
			Name:   "emit-all",
			Global: gpu.R1(groups * wg),
			Local:  gpu.R1(wg),
			Kernel: func(g *gpu.Group) gpu.WorkItemFunc {
				return func(it *gpu.Item) {
					if slot := dev.Claim(it); slot >= 0 {
						data[slot] = uint32(it.GlobalID(0)) + 1
					}
				}
			},
		}); err != nil {
			t.Fatal(err)
		}
		if h.Overflow[0] == 0 {
			geo, err := h.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if geo.Total != groups*wg {
				t.Fatalf("recovered %d entries, want %d", geo.Total, groups*wg)
			}
			for _, v := range Gather(geo, data, nil) {
				if v == 0 {
					t.Fatal("gathered an unwritten slot")
				}
			}
			if attempt == 0 {
				t.Fatal("one page for eight emitting groups did not overflow")
			}
			return
		}
		next, ok := Grow(layout)
		if !ok {
			t.Fatalf("overflow at the worst case (%v)", layout)
		}
		layout = next
	}
}

// TestClaimDeterministicTotals runs the same dense launch twice under the
// concurrent scheduler: the atomic traffic and decoded totals must not
// depend on interleaving.
func TestClaimDeterministicTotals(t *testing.T) {
	const groups, wg = 8, 64
	layout := WorstCase(groups, wg)
	run := func() (int64, int) {
		h := NewHost(layout)
		dev := h.Device()
		stats, err := testDevice().Launch(gpu.LaunchSpec{
			Name:   "emit",
			Global: gpu.R1(groups * wg),
			Local:  gpu.R1(wg),
			Kernel: func(g *gpu.Group) gpu.WorkItemFunc {
				return func(it *gpu.Item) {
					if it.GlobalID(0)%3 == 0 {
						dev.Claim(it)
					}
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		geo, err := h.Decode()
		if err != nil {
			t.Fatal(err)
		}
		return stats.AtomicOps, geo.Total
	}
	a1, t1 := run()
	a2, t2 := run()
	if a1 != a2 || t1 != t2 {
		t.Errorf("runs diverged: atomics %d vs %d, totals %d vs %d", a1, a2, t1, t2)
	}
}

// TestDecodeRejectsCorruption feeds Decode every impossible-state shape a
// corrupted readback could produce; each must come back as SiteArena
// corruption, never as geometry that would missize the entry gather.
func TestDecodeRejectsCorruption(t *testing.T) {
	const pageSlots, pages = 64, 4
	np, po := NoPage, PageOverflow
	cases := []struct {
		name   string
		cursor uint32
		count  []uint32
		pageOf []uint32
	}{
		{"mismatched tables", 0, []uint32{0}, []uint32{np, np}},
		{"cursor past pages", 5, []uint32{0, 0}, []uint32{np, np}},
		{"emitted without a page", 0, []uint32{3, 0}, []uint32{np, np}},
		{"overflow page with zero counter", 1, []uint32{64, 1}, []uint32{po, 0}},
		{"page past cursor", 1, []uint32{1, 1}, []uint32{0, 3}},
		{"counter past page size", 1, []uint32{65, 0}, []uint32{0, np}},
		{"claimed without emitting", 1, []uint32{0, 0}, []uint32{0, np}},
		{"page claimed twice", 2, []uint32{1, 1}, []uint32{0, 0}},
		{"claimed pages unowned", 2, []uint32{1, 0}, []uint32{0, np}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Decode(tt.cursor, tt.count, tt.pageOf, pageSlots, pages)
			if err == nil {
				t.Fatal("corrupt state decoded")
			}
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != fault.SiteArena || fe.Class != fault.Corruption {
				t.Fatalf("err = %v, want SiteArena corruption", err)
			}
		})
	}

	// The clean shape those cases mutate decodes fine.
	geo, err := Decode(2, []uint32{5, 9, 0}, []uint32{1, 0, np}, pageSlots, pages)
	if err != nil {
		t.Fatalf("clean state rejected: %v", err)
	}
	if geo.Claimed != 2 || geo.Total != 14 || geo.Counts[0] != 9 || geo.Counts[1] != 5 {
		t.Errorf("geometry = %+v", geo)
	}
	// Group 0 owns page 1 and group 1 owns page 0, so the canonical gather
	// order is page 1 then page 0, whatever order the claims landed in.
	if len(geo.Order) != 2 || geo.Order[0] != 1 || geo.Order[1] != 0 {
		t.Errorf("page order = %v, want [1 0] (owning-group order)", geo.Order)
	}
	src := make([]uint32, pages*pageSlots)
	for i := range src {
		src[i] = uint32(i)
	}
	got := Gather(geo, src, nil)
	if len(got) != 14 || got[0] != uint32(pageSlots) || got[5] != 0 {
		t.Errorf("Gather = %v, want page 1's 5 entries then page 0's 9", got)
	}
}

func TestHostReset(t *testing.T) {
	h := NewHost(SizedPages(2, 4, 8))
	h.Cursor[0], h.Overflow[0] = 2, 1
	h.Count[1], h.PageOf[1] = 3, 0
	h.Reset()
	if h.Cursor[0] != 0 || h.Overflow[0] != 0 || h.Count[1] != 0 || h.PageOf[1] != NoPage {
		t.Errorf("Reset left state: %+v", h)
	}
}

func TestPredictor(t *testing.T) {
	p := NewPredictor(0.3, 1.5, 1.0)
	// Prior rate 1.0 with margin 1.5: 10 units -> 15 pages.
	if got := p.Predict(10); got != 15 {
		t.Errorf("prior Predict(10) = %d, want 15", got)
	}
	// The first observation replaces the prior outright.
	p.Observe(10, 2)
	if r := p.Rate(); r != 0.2 {
		t.Errorf("rate after first observation = %v, want 0.2", r)
	}
	if got := p.Predict(10); got != 3 {
		t.Errorf("Predict(10) = %d, want ceil(0.2*10*1.5) = 3", got)
	}
	// Later observations fold in with the EWMA weight.
	p.Observe(10, 10)
	if r := p.Rate(); r < 0.43 || r > 0.45 {
		t.Errorf("rate after EWMA fold = %v, want 0.2 + 0.3*(1.0-0.2) = 0.44", r)
	}
	// Predictions never drop below one page, and zero-unit observations
	// are ignored rather than dividing by zero.
	p.Observe(0, 100)
	if got := NewPredictor(0.3, 1.5, 0).Predict(10); got != 1 {
		t.Errorf("zero-rate Predict = %d, want the one-page floor", got)
	}
}
