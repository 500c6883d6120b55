package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"casoffinder/internal/genome"
	"casoffinder/internal/obs"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true}, {999, 99, false}, {200, 95, true}, {199, 95, false},
		{100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for n, want := range map[int]float64{5: 0, 19: 0, 20: 50, 99: 50, 100: 90, 200: 95, 999: 95, 1000: 99, 5000: 99} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = p%g, want p%g", n, got, want)
		}
	}
	if tailNote(1000, 99) != "" || tailNote(999, 99) == "" {
		t.Errorf("tailNote does not follow the rule")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	if got := quantile([]float64{0, 10}, 0.9); got != 9 {
		t.Errorf("q90 of {0, 10} = %v, want 9 (linear interpolation)", got)
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rngFor(7, streamSchedule), 500, 100, 16, 2, 0.1)
	b := poissonSchedule(rngFor(7, streamSchedule), 500, 100, 16, 2, 0.1)
	c := poissonSchedule(rngFor(8, streamSchedule), 500, 100, 16, 2, 0.1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same schedule")
	}
	// The mean rate is near the nominal one and guides are valid.
	if rate := float64(len(a)) / a[len(a)-1].due.Seconds(); rate < 85 || rate > 115 {
		t.Errorf("rate %.1f/s, want about 100/s", rate)
	}
	for _, x := range a {
		if len(x.guides) < 1 || len(x.guides) > 4 {
			t.Fatalf("%d guides in a request", len(x.guides))
		}
		seen := map[int]bool{}
		for _, g := range x.guides {
			if g < 0 || g >= 18 || seen[g] {
				t.Fatalf("bad guide list %v", x.guides)
			}
			seen[g] = true
		}
	}
}

func smallAssembly(t *testing.T, seed int64) *genome.Assembly {
	t.Helper()
	asm, err := hg38Like(seed, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	return asm
}

func assemblyBytes(asm *genome.Assembly) []byte {
	var b bytes.Buffer
	for _, s := range asm.Sequences {
		b.WriteString(s.Name)
		b.Write(s.Data)
	}
	return b.Bytes()
}

func TestGuideSamplerSeeded(t *testing.T) {
	asm := smallAssembly(t, 3)
	a, err := sampleGuides(asm, 6, rngFor(3, streamGuides), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sampleGuides(asm, 6, rngFor(3, streamGuides), nil)
	c, _ := sampleGuides(asm, 6, rngFor(4, streamGuides), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed, different guides")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds, same guides")
	}
	// Every guide is a protospacer of the assembly, the first one of the
	// first sequence.
	for i, g := range a {
		found := false
		for si, s := range asm.Sequences {
			if i == 0 && si > 0 {
				break
			}
			for pos := 0; pos+siteLen <= len(s.Data) && !found; pos++ {
				if p, ok := protospacerAt(s.Data, pos); ok && p == g {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("guide %d %s is not a protospacer where it should be", i, g)
		}
	}
}

func TestRepeatOverlaySeeded(t *testing.T) {
	overlaid := func(seed int64) ([]byte, []interval, *repeatFamily) {
		asm := smallAssembly(t, 1)
		rng := rngFor(seed, streamRepeats)
		fam, err := newRepeatFamily(rng, 300, 12)
		if err != nil {
			t.Fatal(err)
		}
		placed := fam.overlay(asm, rng, 100, 0.08)
		return assemblyBytes(asm), placed, fam
	}
	a, ivA, fam := overlaid(5)
	b, ivB, _ := overlaid(5)
	c, _, _ := overlaid(6)
	if !bytes.Equal(a, b) || !reflect.DeepEqual(ivA, ivB) {
		t.Fatal("same seed, different overlay")
	}
	if bytes.Equal(a, c) {
		t.Fatal("different seeds, same overlay")
	}
	if len(ivA) < 90 {
		t.Errorf("placed %d of 100 copies", len(ivA))
	}
	for i := 1; i < len(ivA); i++ {
		if p, q := ivA[i-1], ivA[i]; p.si == q.si && q.lo < p.hi {
			t.Fatalf("copies %v and %v overlap", p, q)
		}
	}
	for i, g := range fam.guides {
		at := i * 24
		if p, ok := protospacerAt(fam.consensus, at); !ok || p != g {
			t.Errorf("guide %d is not a protospacer of the consensus", i)
		}
	}
	// Guides drawn with the copies excluded each occur outside them.
	asm := smallAssembly(t, 1)
	rng := rngFor(5, streamRepeats)
	fam2, _ := newRepeatFamily(rng, 300, 2)
	copies := fam2.overlay(asm, rng, 100, 0.08)
	guides, err := sampleGuides(asm, 8, rngFor(5, streamGuides), copies)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range guides {
		outside := false
		for si, sq := range asm.Sequences {
			for pos := 0; pos+siteLen <= len(sq.Data) && !outside; pos++ {
				if p, ok := protospacerAt(sq.Data, pos); ok && p == g && !overlaps(copies, si, pos, pos+siteLen) {
					outside = true
				}
			}
		}
		if !outside {
			t.Errorf("guide %s occurs only inside repeat copies", g)
		}
	}
}

func ns(n int) time.Duration { return time.Duration(n) }

func TestSelfTimesNestedAndOverlapping(t *testing.T) {
	spans := []span{
		{ID: 1, Start: ns(0), End: ns(100)},
		{ID: 2, Parent: 1, Start: ns(10), End: ns(50)},
		{ID: 3, Parent: 2, Start: ns(20), End: ns(30)},
		// Overlapping siblings under span 4 count their union once.
		{ID: 4, Start: ns(200), End: ns(300)},
		{ID: 5, Parent: 4, Start: ns(210), End: ns(240)},
		{ID: 6, Parent: 4, Start: ns(230), End: ns(260)},
		// A child reaching past its parent counts only inside it.
		{ID: 7, Start: ns(400), End: ns(500)},
		{ID: 8, Parent: 7, Start: ns(490), End: ns(520)},
	}
	want := map[int]time.Duration{1: 60, 2: 30, 3: 10, 4: 50, 5: 30, 6: 30, 7: 90, 8: 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldAssignsParentsByTrack(t *testing.T) {
	epoch := time.Unix(1000, 0)
	at := func(n int) time.Time { return epoch.Add(ns(n)) }
	rec := newRecorder(epoch)
	root := rec.add("pass-0", "bench", "pass", 0, at(0), at(60))
	prog := []obs.Span{
		{Track: "cpu/worker0", Name: "scan", Start: at(10), Duration: 40},
		{Track: "cpu/worker0", Name: "find", Start: at(10), Duration: 10},
		{Track: "cpu/worker0", Name: "compare", Start: at(20), Duration: 25},
		{Track: "cpu/stager", Name: "stage", Start: at(0), Duration: 8},
		{Track: "cpu/stager", Name: "retry", Start: at(5), Instant: true},
		{Track: "cpu/stager", Name: "stage", Start: at(70), Duration: 8}, // next pass
	}
	rec.fold(root, prog)
	byName := map[string]span{}
	for _, s := range rec.all() {
		if _, dup := byName[s.Name]; dup {
			t.Fatalf("span %s folded twice", s.Name)
		}
		byName[s.Name] = s
	}
	if len(byName) != 5 {
		t.Fatalf("folded %d spans, want pass + 4: %v", len(byName), byName)
	}
	scan := byName["scan"]
	for name, parent := range map[string]int{"scan": root.ID, "stage": root.ID, "find": scan.ID, "compare": scan.ID} {
		if byName[name].Parent != parent {
			t.Errorf("%s parent %d, want %d", name, byName[name].Parent, parent)
		}
	}
	self := selfTimes(rec.all())
	if self[scan.ID] != 5 {
		t.Errorf("scan self time %v, want 5ns", self[scan.ID])
	}
	if self[root.ID] != 60-48 {
		t.Errorf("pass self time %v, want 12ns uncovered", self[root.ID])
	}
}

func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(ms []metric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name+" "+m.Unit)
		}
		return out
	}
	if got, want := names(b.EndToEnd), names(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json end_to_end %v, program reports %v", got, want)
	}
	if got, want := names(b.PerLayer), names(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer %v, program reports %v", got, want)
	}
}

func TestCompareRefusesOtherHosts(t *testing.T) {
	a := record{Fingerprint: hostFingerprint(1), Workload: "serve", Seconds: 15}
	b := a
	b.Fingerprint.Seed, b.Fingerprint.Source = 2, "other"
	if err := comparable(a, b); err != nil {
		t.Errorf("seed and source may differ: %v", err)
	}
	b.Fingerprint.NumCPU++
	if err := comparable(a, b); err == nil {
		t.Error("compared results from hosts with different CPU counts")
	}
	c := a
	c.Workload = "device"
	if err := comparable(a, c); err == nil {
		t.Error("compared different workloads")
	}
}
