package search

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"casoffinder/internal/baseline"
	"casoffinder/internal/genome"
	"casoffinder/internal/gpu"
	"casoffinder/internal/gpu/device"
	"casoffinder/internal/kernels"
)

// testAssembly builds a small deterministic assembly with planted
// approximate sites for the given guide+PAM.
func testAssembly(t *testing.T, seed int64, seqLens []int, site string) *genome.Assembly {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	asm := &genome.Assembly{Name: "test"}
	alphabet := []byte("ACGTacgtN")
	for si, n := range seqLens {
		data := make([]byte, n)
		for i := range data {
			data[i] = alphabet[rng.Intn(len(alphabet))]
		}
		for p := 16; p+len(site)+4 < n; p += 96 + rng.Intn(64) {
			mutated := []byte(site)
			for m := 0; m < rng.Intn(4); m++ {
				mutated[rng.Intn(len(mutated))] = "ACGT"[rng.Intn(4)]
			}
			if rng.Intn(2) == 0 {
				genome.ReverseComplement(mutated)
			}
			copy(data[p:], mutated)
		}
		asm.Sequences = append(asm.Sequences, &genome.Sequence{
			Name: string(rune('a' + si)),
			Data: data,
		})
	}
	return asm
}

const (
	testPattern = "NNNNNNNNNNGG"
	testGuide   = "GATTACAGTANN"
	testSite    = "GATTACAGTAGG"
)

func testRequest(maxMM int) *Request {
	return &Request{
		Pattern:    testPattern,
		Queries:    []Query{{Guide: testGuide, MaxMismatches: maxMM}},
		ChunkBytes: 300, // force many chunks
	}
}

// baselineHits computes the expected hits with the naive reference.
func baselineHits(t *testing.T, asm *genome.Assembly, req *Request) []Hit {
	t.Helper()
	var all []Hit
	for qi, q := range req.Queries {
		g, err := kernels.NewPatternPair([]byte(q.Guide))
		if err != nil {
			t.Fatal(err)
		}
		for _, seq := range asm.Sequences {
			data := genome.Upper(seq.Data)
			hits, err := baseline.Search(data, []byte(strings.ToUpper(req.Pattern)), []byte(strings.ToUpper(q.Guide)), q.MaxMismatches)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range hits {
				window := data[h.Pos : h.Pos+len(req.Pattern)]
				all = append(all, Hit{
					QueryIndex: qi,
					SeqName:    seq.Name,
					Pos:        h.Pos,
					Dir:        h.Dir,
					Mismatches: h.Mismatches,
					Site:       renderSite(window, g, h.Dir),
				})
			}
		}
	}
	sortHits(all)
	return all
}

func equalHits(a, b []Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func engines(t *testing.T) []Engine {
	t.Helper()
	return []Engine{
		&CPU{Workers: 4},
		&SimCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.Base},
		&SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Opt3, WorkGroupSize: 64},
	}
}

// TestEnginesMatchBaseline is the central equivalence test: every engine
// must return exactly the reference hits, across chunk boundaries, multiple
// sequences and soft-masked/N-containing input.
func TestEnginesMatchBaseline(t *testing.T) {
	asm := testAssembly(t, 11, []int{700, 450, 90, 5}, testSite)
	req := testRequest(2)
	want := baselineHits(t, asm, req)
	if len(want) == 0 {
		t.Fatal("reference produced no hits; test data is too sparse")
	}
	for _, eng := range engines(t) {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s: %d hits != reference %d", eng.Name(), len(got), len(want))
			for i := 0; i < len(got) && i < 5; i++ {
				t.Logf("  got[%d]  = %+v", i, got[i])
			}
			for i := 0; i < len(want) && i < 5; i++ {
				t.Logf("  want[%d] = %+v", i, want[i])
			}
		}
	}
}

// TestEnginesEquivalentProperty: random assemblies, all engines agree with
// the reference bit for bit.
func TestEnginesEquivalentProperty(t *testing.T) {
	engs := engines(t)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{200 + rng.Intn(600), 100 + rng.Intn(300)}, testSite)
		req := testRequest(rng.Intn(4))
		req.ChunkBytes = 64 + rng.Intn(512)
		want := baselineHits(t, asm, req)
		for _, eng := range engs {
			got, err := eng.Run(asm, req)
			if err != nil {
				t.Logf("%s: %v", eng.Name(), err)
				return false
			}
			if !equalHits(got, want) {
				t.Logf("%s diverged on seed %d (%d vs %d hits)", eng.Name(), seed, len(got), len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestOpenCLAndSYCLIdentical is the migration-correctness claim of the
// paper: the two frontends drive identical kernels and must agree exactly,
// for every comparer variant.
func TestOpenCLAndSYCLIdentical(t *testing.T) {
	asm := testAssembly(t, 21, []int{900}, testSite)
	req := testRequest(3)
	dev := gpu.New(device.RadeonVII(), gpu.WithWorkers(4))
	for _, v := range kernels.Variants() {
		cl := &SimCL{Device: dev, Variant: v}
		sy := &SimSYCL{Device: dev, Variant: v, WorkGroupSize: 64}
		clHits, err := cl.Run(asm, req)
		if err != nil {
			t.Fatalf("opencl %s: %v", v, err)
		}
		syHits, err := sy.Run(asm, req)
		if err != nil {
			t.Fatalf("sycl %s: %v", v, err)
		}
		if !equalHits(clHits, syHits) {
			t.Errorf("variant %s: OpenCL and SYCL engines disagree (%d vs %d hits)", v, len(clHits), len(syHits))
		}
	}
}

func TestMultiQuery(t *testing.T) {
	asm := testAssembly(t, 5, []int{800}, testSite)
	req := &Request{
		Pattern: testPattern,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 1},
			{Guide: "GATTACAGTANN", MaxMismatches: 3},
			{Guide: "CCCCCCCCCCNN", MaxMismatches: 0},
		},
		ChunkBytes: 256,
	}
	want := baselineHits(t, asm, req)
	for _, eng := range engines(t) {
		got, err := eng.Run(asm, req)
		if err != nil {
			t.Fatalf("%s: %v", eng.Name(), err)
		}
		if !equalHits(got, want) {
			t.Errorf("%s: multi-query hits diverge (%d vs %d)", eng.Name(), len(got), len(want))
		}
	}
	// Query 1 (looser threshold) must dominate query 0's hit set.
	counts := map[int]int{}
	for _, h := range want {
		counts[h.QueryIndex]++
	}
	if counts[1] < counts[0] {
		t.Errorf("looser threshold found fewer hits: %v", counts)
	}
}

func TestRequestValidation(t *testing.T) {
	asm := testAssembly(t, 1, []int{100}, testSite)
	eng := &CPU{}
	tests := []struct {
		name string
		req  Request
	}{
		{"empty pattern", Request{Queries: []Query{{Guide: "NN", MaxMismatches: 0}}}},
		{"no queries", Request{Pattern: "NGG"}},
		{"length mismatch", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACGT"}}}},
		{"bad pattern code", Request{Pattern: "NG!", Queries: []Query{{Guide: "ACN"}}}},
		{"bad guide code", Request{Pattern: "NGG", Queries: []Query{{Guide: "A!N"}}}},
		{"negative mm", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACN", MaxMismatches: -1}}}},
		{"negative chunk", Request{Pattern: "NGG", Queries: []Query{{Guide: "ACN"}}, ChunkBytes: -5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := eng.Run(asm, &tt.req); err == nil {
				t.Error("invalid request accepted")
			}
		})
	}
}

func TestProfileCollection(t *testing.T) {
	asm := testAssembly(t, 33, []int{1200}, testSite)
	req := testRequest(2)
	req.ChunkBytes = 400
	eng := &SimSYCL{Device: gpu.New(device.MI60(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}
	if eng.LastProfile() != nil {
		t.Error("profile before run should be nil")
	}
	if _, err := eng.Run(asm, req); err != nil {
		t.Fatal(err)
	}
	p := eng.LastProfile()
	if p == nil {
		t.Fatal("no profile collected")
	}
	if p.Chunks < 3 {
		t.Errorf("chunks = %d, want several", p.Chunks)
	}
	finder, ok := p.Kernels["finder"]
	if !ok {
		t.Fatal("finder not profiled")
	}
	comparer, ok := p.Kernels["comparer"]
	if !ok {
		t.Fatalf("comparer not profiled (have %v)", p.KernelNames())
	}
	if finder.WorkItems == 0 || comparer.WorkItems == 0 {
		t.Error("kernel stats empty")
	}
	if p.Launches["finder"] != p.Chunks {
		t.Errorf("finder launches %d != chunks %d", p.Launches["finder"], p.Chunks)
	}
	if p.BytesStaged <= int64(asm.TotalLen()) {
		t.Errorf("BytesStaged = %d, should exceed genome size", p.BytesStaged)
	}
	if p.CandidateSites == 0 || p.Entries == 0 {
		t.Error("pipeline counters empty")
	}
	if p.WorkGroupSizes["comparer"] != 64 {
		t.Errorf("comparer wg size = %d", p.WorkGroupSizes["comparer"])
	}
}

// TestHotspotProfile reproduces the profiling observation of §IV.B: the
// comparer accounts for the vast majority of kernel memory traffic when
// enough guides are compared.
func TestHotspotProfile(t *testing.T) {
	asm := testAssembly(t, 44, []int{4000}, testSite)
	req := &Request{
		Pattern:    testPattern,
		ChunkBytes: 2000,
		Queries: []Query{
			{Guide: testGuide, MaxMismatches: 6},
			{Guide: "GATTACAGTCNN", MaxMismatches: 6},
			{Guide: "TTTTACAGTANN", MaxMismatches: 6},
			{Guide: "GACCACAGTANN", MaxMismatches: 6},
		},
	}
	eng := &SimSYCL{Device: gpu.New(device.MI100(), gpu.WithWorkers(4)), Variant: kernels.Base, WorkGroupSize: 64}
	if _, err := eng.Run(asm, req); err != nil {
		t.Fatal(err)
	}
	p := eng.LastProfile()
	comp := p.Kernels["comparer"]
	finder := p.Kernels["finder"]
	if comp.WorkItems == 0 {
		t.Fatal("comparer did not run")
	}
	// With 4 guides, comparer launches must outnumber finder launches 4:1.
	if p.Launches["comparer"] != 4*p.Launches["finder"] {
		t.Errorf("comparer launches %d, finder %d", p.Launches["comparer"], p.Launches["finder"])
	}
	_ = finder
}

func TestHitString(t *testing.T) {
	h := Hit{QueryIndex: 2, SeqName: "chr7", Pos: 123, Dir: '+', Mismatches: 3, Site: "GATtACAGG"}
	s := h.String()
	for _, part := range []string{"chr7", "123", "GATtACAGG", "+", "3"} {
		if !strings.Contains(s, part) {
			t.Errorf("Hit.String() = %q missing %q", s, part)
		}
	}
}

func TestRenderSite(t *testing.T) {
	g, err := kernels.NewPatternPair([]byte("GATTACANN"))
	if err != nil {
		t.Fatal(err)
	}
	// Forward, one mismatch at position 3 (T->G).
	site := renderSite([]byte("GATGACATGG"[:9]), g, kernels.DirForward)
	if site != "GATgACATG" {
		t.Errorf("forward site = %q, want GATgACATG", site)
	}
	// Reverse: the genomic window is the reverse complement of a perfect
	// site; rendering must return the guide orientation, uppercase.
	window := genome.ReverseComplemented([]byte("GATTACATGG"[:9]))
	site = renderSite(window, g, kernels.DirReverse)
	if site != "GATTACATG" {
		t.Errorf("reverse site = %q, want GATTACATG", site)
	}
}

func TestEngineNames(t *testing.T) {
	if (&CPU{}).Name() != "cpu" {
		t.Error("cpu name")
	}
	if (&SimCL{}).Name() != "opencl-sim" {
		t.Error("opencl name")
	}
	if (&SimSYCL{}).Name() != "sycl-sim" {
		t.Error("sycl name")
	}
}

func TestNilDeviceErrors(t *testing.T) {
	asm := testAssembly(t, 1, []int{100}, testSite)
	req := testRequest(0)
	if _, err := (&SimCL{}).Run(asm, req); err == nil {
		t.Error("SimCL with nil device accepted")
	}
	if _, err := (&SimSYCL{}).Run(asm, req); err == nil {
		t.Error("SimSYCL with nil device accepted")
	}
}

// TestPackedEngineEquivalence: the CPU engine's 2-bit packed scan returns
// exactly the scalar baseline's hits, including sites, on randomized
// genomes with soft masking and Ns.
func TestPackedEngineEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		asm := testAssembly(t, seed, []int{300 + rng.Intn(500)}, testSite)
		req := testRequest(rng.Intn(4))
		req.ChunkBytes = 100 + rng.Intn(400)
		got, err := (&CPU{Workers: 2}).Run(asm, req)
		if err != nil {
			return false
		}
		return equalHits(got, baselineHits(t, asm, req))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPackedEngineAmbiguityCodes: rare IUPAC codes in the genome collapse
// to unknown in the packed format; the CPU engine must treat them as
// matching only a pattern N, exactly as the scalar baseline does.
func TestPackedEngineAmbiguityCodes(t *testing.T) {
	asm := &genome.Assembly{Name: "amb", Sequences: []*genome.Sequence{
		{Name: "s", Data: []byte("ACCGATTRCAGGTTTGATTACAGG")},
	}}
	req := &Request{
		Pattern:    "NNNNNNNGG",
		Queries:    []Query{{Guide: "GATTACANN", MaxMismatches: 1}},
		ChunkBytes: 64,
	}
	got, err := (&CPU{}).Run(asm, req)
	if err != nil {
		t.Fatal(err)
	}
	want := baselineHits(t, asm, req)
	if len(want) == 0 {
		t.Fatal("expected hits")
	}
	if !equalHits(got, want) {
		t.Errorf("ambiguity handling diverges: %+v vs %+v", got, want)
	}
}
