package alloc

import (
	"encoding/binary"
	"errors"
	"testing"

	"casoffinder/internal/fault"
)

// FuzzArenaDecode hammers the arena readback boundary — the one place a
// corrupted (or maliciously crafted) device buffer crosses back into host
// control flow. Whatever claim-state bytes arrive, Decode must return
// either a typed SiteArena corruption fault or a geometry that is safe to
// gather from: totals bounded by the arena, every claimed page owned by
// exactly one group, no entry range outside the data buffer. It must never
// panic and never hand back geometry that would missize the entry copy.
// The seed corpus encodes the overflow/corruption taxonomy from
// TestDecodeRejectsCorruption; `make fuzz-regress` grows it.
func FuzzArenaDecode(f *testing.F) {
	np, po := NoPage, PageOverflow
	seed := func(cursor uint32, count, pageOf []uint32) {
		raw := make([]byte, 0, 4+4*len(count)+4*len(pageOf))
		raw = binary.LittleEndian.AppendUint32(raw, cursor)
		for _, c := range count {
			raw = binary.LittleEndian.AppendUint32(raw, c)
		}
		for _, p := range pageOf {
			raw = binary.LittleEndian.AppendUint32(raw, p)
		}
		f.Add(uint16(len(count)), raw)
	}
	// Clean shapes: idle, one full page, sparse claims.
	seed(0, []uint32{0, 0}, []uint32{np, np})
	seed(1, []uint32{64, 0}, []uint32{0, np})
	seed(2, []uint32{5, 9, 0}, []uint32{1, 0, np})
	// Overflow shapes: a group past its page, cursor past the arena.
	seed(1, []uint32{70, 0}, []uint32{0, np})
	seed(4, []uint32{64, 64}, []uint32{0, po})
	// The corruption taxonomy.
	seed(5, []uint32{0, 0}, []uint32{np, np}) // cursor past pages
	seed(0, []uint32{3, 0}, []uint32{np, np}) // emitted without a page
	seed(1, []uint32{64, 1}, []uint32{po, 0}) // overflow page, zero counter
	seed(1, []uint32{1, 1}, []uint32{0, 3})   // page past cursor
	seed(1, []uint32{65, 0}, []uint32{0, np}) // counter past page size
	seed(1, []uint32{0, 0}, []uint32{0, np})  // claimed without emitting
	seed(2, []uint32{1, 1}, []uint32{0, 0})   // page claimed twice
	seed(2, []uint32{1, 0}, []uint32{0, np})  // claimed pages unowned

	const pageSlots, maxPages = 64, 8
	f.Fuzz(func(t *testing.T, groups uint16, raw []byte) {
		g := int(groups%64) + 1
		if len(raw) < 4+8*g {
			return
		}
		cursor := binary.LittleEndian.Uint32(raw)
		count := make([]uint32, g)
		pageOf := make([]uint32, g)
		for i := 0; i < g; i++ {
			count[i] = binary.LittleEndian.Uint32(raw[4+4*i:])
			pageOf[i] = binary.LittleEndian.Uint32(raw[4+4*g+4*i:])
		}
		geo, err := Decode(cursor, count, pageOf, pageSlots, maxPages)
		if err != nil {
			var fe *fault.Error
			if !errors.As(err, &fe) || fe.Site != fault.SiteArena {
				t.Fatalf("decode rejection is not a SiteArena fault: %v", err)
			}
			return
		}
		// Admitted geometry must be safe to gather from: pages 0..Claimed-1
		// each carry a count inside the page, and Total is their sum — the
		// exact size of the compacted copy the backends enqueue.
		if geo.Claimed < 0 || geo.Claimed > maxPages || geo.Claimed > g {
			t.Fatalf("claimed %d pages of %d with %d groups", geo.Claimed, maxPages, g)
		}
		if geo.PageSlots != pageSlots || len(geo.Counts) != geo.Claimed {
			t.Fatalf("geometry %+v does not match %d claimed pages of %d slots",
				geo, geo.Claimed, pageSlots)
		}
		total := 0
		for page, n := range geo.Counts {
			if n < 1 || n > pageSlots {
				t.Fatalf("page %d count %d outside (0, %d]", page, n, pageSlots)
			}
			total += n
		}
		if total != geo.Total {
			t.Fatalf("Total %d != sum of page counts %d", geo.Total, total)
		}
		seen := make([]bool, geo.Claimed)
		for _, p := range geo.Order {
			if p < 0 || p >= geo.Claimed || seen[p] {
				t.Fatalf("page order %v is not a permutation of %d claimed pages", geo.Order, geo.Claimed)
			}
			seen[p] = true
		}
		if len(geo.Order) != geo.Claimed {
			t.Fatalf("page order %v lists %d of %d claimed pages", geo.Order, len(geo.Order), geo.Claimed)
		}
		data := make([]uint32, maxPages*pageSlots)
		if got := Gather(geo, data, nil); len(got) != geo.Total {
			t.Fatalf("Gather returned %d entries for Total %d", len(got), geo.Total)
		}
	})
}
