package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"casoffinder/internal/genome"
)

// pattern is the CLI's SpCas9 scaffold: a 20-base guide then an NRG PAM.
const pattern = "NNNNNNNNNNNNNNNNNNNNNRG"

const (
	guideLen = 20
	siteLen  = len(pattern)
)

// Seed streams: every generated input draws from its own stream, so
// changing how one input is drawn leaves the others as they were.
const (
	streamGenome int64 = iota + 1
	streamGuides
	streamRepeats
	streamPlant
	streamSchedule
)

func rngFor(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// hg38Like generates the seeded hg38-like assembly of about bases bases.
func hg38Like(seed int64, bases int) (*genome.Assembly, error) {
	p := genome.HG38Like(bases)
	p.Seed = rngFor(seed, streamGenome).Int63()
	return genome.Generate(p)
}

func upperBase(b byte) byte {
	if b >= 'a' && b <= 'z' {
		return b - 'a' + 'A'
	}
	return b
}

func concrete(b byte) bool {
	switch upperBase(b) {
	case 'A', 'C', 'G', 'T':
		return true
	}
	return false
}

// protospacerAt returns the guide (20 bases + "NNN") of the forward-strand
// site at pos when the 23-mer there is fully resolved and ends in an NRG PAM.
func protospacerAt(seq []byte, pos int) (string, bool) {
	if pos < 0 || pos+siteLen > len(seq) {
		return "", false
	}
	w := seq[pos : pos+siteLen]
	for _, b := range w {
		if !concrete(b) {
			return "", false
		}
	}
	if r := upperBase(w[21]); (r != 'A' && r != 'G') || upperBase(w[22]) != 'G' {
		return "", false
	}
	g := make([]byte, 0, siteLen)
	for _, b := range w[:guideLen] {
		g = append(g, upperBase(b))
	}
	return string(g) + "NNN", true
}

// sampleGuide draws a genomic protospacer from sequence si: a random start,
// then the first site at or after it that lies outside every repeat copy.
func sampleGuide(asm *genome.Assembly, si int, rng *rand.Rand, repeats []interval) (string, error) {
	seq := asm.Sequences[si].Data
	if len(seq) < siteLen {
		return "", fmt.Errorf("sequence %s is shorter than a site", asm.Sequences[si].Name)
	}
	start := rng.Intn(len(seq) - siteLen + 1)
	for i := 0; i < len(seq); i++ {
		pos := (start + i) % (len(seq) - siteLen + 1)
		if overlaps(repeats, si, pos, pos+siteLen) {
			continue
		}
		if g, ok := protospacerAt(seq, pos); ok {
			return g, nil
		}
	}
	return "", fmt.Errorf("sequence %s has no protospacer", asm.Sequences[si].Name)
}

// interval is a half-open range [lo, hi) of sequence si.
type interval struct{ si, lo, hi int }

func overlaps(ivs []interval, si, lo, hi int) bool {
	for _, iv := range ivs {
		if iv.si == si && lo < iv.hi && iv.lo < hi {
			return true
		}
	}
	return false
}

// sampleGuides draws n distinct genomic protospacers outside the repeat
// copies. The first comes from the first sequence, so every pass's first
// hit (that guide's on-target) lies in the first chunks and time to first
// hit measures the pipeline's first-chunk latency instead of where the seed
// happened to put a site; the rest come from sequences drawn by length.
func sampleGuides(asm *genome.Assembly, n int, rng *rand.Rand, repeats []interval) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	total := asm.TotalLen()
	for tries := 0; len(out) < n; tries++ {
		if tries > 100*n {
			return nil, fmt.Errorf("could not draw %d distinct protospacers", n)
		}
		si := 0
		if len(out) > 0 {
			at := rng.Int63n(total)
			for si = 0; si < len(asm.Sequences)-1 && at >= int64(len(asm.Sequences[si].Data)); si++ {
				at -= int64(len(asm.Sequences[si].Data))
			}
		}
		g, err := sampleGuide(asm, si, rng, repeats)
		if err != nil {
			continue
		}
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	return out, nil
}

// repeatFamily is an Alu-like interspersed repeat: a consensus with guide
// sites tiled along it, copied across the assembly with point mutations.
type repeatFamily struct {
	consensus []byte
	guides    []string
}

// newRepeatFamily draws a consensus of length n carrying `sites` forward
// protospacers tiled every 24 bases (each 20-mer followed by a GG PAM).
func newRepeatFamily(rng *rand.Rand, n, sites int) (*repeatFamily, error) {
	if sites*24 > n {
		return nil, fmt.Errorf("%d sites do not fit a %d-base consensus", sites, n)
	}
	c := randomBases(rng, n)
	f := &repeatFamily{consensus: c}
	for i := 0; i < sites; i++ {
		at := i * 24
		c[at+21], c[at+22] = 'G', 'G'
		f.guides = append(f.guides, string(c[at:at+guideLen])+"NNN")
	}
	return f, nil
}

// randomBases draws n bases at hg38's 41% GC.
func randomBases(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		if rng.Float64() < 0.41 {
			out[i] = "GC"[rng.Intn(2)]
		} else {
			out[i] = "AT"[rng.Intn(2)]
		}
	}
	return out
}

// overlay writes `copies` mutated copies of the consensus over the
// assembly, one per equal slot of the concatenated sequences at a random
// offset within it, so copies never overlap. Each copy substitutes each
// base with probability divergence and lands on a random strand. A slot
// whose copy would cross a sequence end is left alone. It returns where the
// copies went.
func (f *repeatFamily) overlay(asm *genome.Assembly, rng *rand.Rand, copies int, divergence float64) []interval {
	total := asm.TotalLen()
	slot := total / int64(copies)
	if slot < int64(len(f.consensus)) {
		slot = int64(len(f.consensus))
	}
	var placed []interval
	buf := make([]byte, len(f.consensus))
	for c := int64(0); c+slot <= total; c += slot {
		at := c + rng.Int63n(slot-int64(len(f.consensus))+1)
		copy(buf, f.consensus)
		for i := range buf {
			if rng.Float64() < divergence {
				buf[i] = substitute(buf[i], rng)
			}
		}
		if rng.Intn(2) == 1 {
			genome.ReverseComplement(buf)
		}
		for si, s := range asm.Sequences {
			if at < int64(len(s.Data)) {
				if at+int64(len(buf)) <= int64(len(s.Data)) {
					copy(s.Data[at:], buf)
					placed = append(placed, interval{si, int(at), int(at) + len(buf)})
				}
				break
			}
			at -= int64(len(s.Data))
		}
	}
	return placed
}

// substitute returns a different base than b.
func substitute(b byte, rng *rand.Rand) byte {
	for {
		if n := "ACGT"[rng.Intn(4)]; n != upperBase(b) {
			return n
		}
	}
}

// plant writes guide's 20-mer followed by an AGG PAM at a random position
// of sequence si, so that guide has an exact on-target there.
func plant(asm *genome.Assembly, si int, guide string, rng *rand.Rand) {
	seq := asm.Sequences[si].Data
	at := rng.Intn(len(seq) - siteLen + 1)
	copy(seq[at:], guide[:guideLen])
	copy(seq[at+guideLen:], "AGG")
}

// arrival is one request of the open-loop schedule.
type arrival struct {
	due      time.Duration // offset from the phase start
	tenant   int
	priority string
	guides   []int // indices into the guide pool
}

// poissonSchedule draws n arrivals at the given mean rate: exponential
// inter-arrival gaps, a tenant from 4, priority 20/60/20 high/normal/low,
// and 1 to 4 distinct pool guides of which, with probability repeatShare,
// one is a repeat guide (pool indices ≥ genomic).
func poissonSchedule(rng *rand.Rand, n int, rate float64, genomic, repeats int, repeatShare float64) []arrival {
	out := make([]arrival, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		a := arrival{due: time.Duration(t * float64(time.Second)), tenant: rng.Intn(4)}
		switch p := rng.Float64(); {
		case p < 0.2:
			a.priority = "high"
		case p < 0.8:
			a.priority = "normal"
		default:
			a.priority = "low"
		}
		k := 1 + rng.Intn(4)
		for _, gi := range rng.Perm(genomic)[:k] {
			a.guides = append(a.guides, gi)
		}
		if repeats > 0 && rng.Float64() < repeatShare {
			a.guides[rng.Intn(k)] = genomic + rng.Intn(repeats)
		}
		out[i] = a
	}
	return out
}

// lagBound is the generator's allowed lateness at p99: beyond it the
// schedule no longer describes the load the server saw.
const lagBound = 50 * time.Millisecond

// phaseRequests is the request count of a phase lasting seconds at rate,
// never fewer than the 1,000 a p99 needs.
func phaseRequests(rate, seconds float64) int {
	return max(1000, int(math.Round(rate*seconds)))
}
