package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"casoffinder/internal/obs"
)

// span is one traced interval. The benchmark records spans around its own
// calls into the program's public entry points and folds in the spans the
// program's tracer recorded, so a pass or request is one tree: Unit names
// the pass or request every span of it belongs to, Parent the enclosing
// span (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Unit   string        `json:"unit"`
	Track  string        `json:"track"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  []obs.Attr    `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// attr returns the integer value of a span attribute, or 0.
func (s span) attr(key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			n, _ := strconv.ParseInt(a.Value, 10, 64)
			return n
		}
	}
	return 0
}

// recorder keeps a traced run's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// add records a span and returns it with its ID set.
func (r *recorder) add(unit, track, name string, parent int, start, end time.Time, attrs ...obs.Attr) span {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := span{ID: len(r.spans) + 1, Parent: parent, Unit: unit, Track: track, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch), Attrs: attrs}
	r.spans = append(r.spans, s)
	return s
}

// fold adds the program's spans that start inside the root span's interval
// to the root's unit. Within one track a span's parent is the innermost
// span of that track enclosing it (the pipeline nests find/compare/drain
// inside scan); the rest hang off the root. Instants carry no time and are
// skipped.
func (r *recorder) fold(root span, prog []obs.Span) {
	byTrack := map[string][]span{}
	for _, p := range prog {
		if p.Instant {
			continue
		}
		start := p.Start.Sub(r.epoch)
		if start < root.Start || start >= root.End {
			continue
		}
		byTrack[p.Track] = append(byTrack[p.Track], span{Unit: root.Unit, Track: p.Track, Name: p.Name,
			Start: start, End: start + p.Duration, Attrs: p.Attrs})
	}
	tracks := make([]string, 0, len(byTrack))
	for t := range byTrack {
		tracks = append(tracks, t)
	}
	sort.Strings(tracks)
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, t := range tracks {
		ss := byTrack[t]
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		var stack []span
		for _, s := range ss {
			for len(stack) > 0 && s.End > stack[len(stack)-1].End {
				stack = stack[:len(stack)-1]
			}
			s.Parent = root.ID
			if len(stack) > 0 {
				s.Parent = stack[len(stack)-1].ID
			}
			s.ID = len(r.spans) + 1
			r.spans = append(r.spans, s)
			stack = append(stack, s)
		}
	}
}

// all returns a copy of the recorded spans.
func (r *recorder) all() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.all() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns how much of [lo, hi) the union of the spans covers;
// overlapping spans count once and the parts outside the window not at all.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	iv := make([][2]time.Duration, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range iv {
		if open && v[0] <= curB {
			curB = max(curB, v[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v[0], v[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return self
}
