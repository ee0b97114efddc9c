package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call sites (the program itself is not instrumented).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder was made
	End    float64 `json:"end_s"`
}

// maxSpans bounds the recorder's memory; spans past it are counted, not
// kept.
const maxSpans = 500_000

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type spanRecorder struct {
	mu      sync.Mutex
	base    time.Time
	next    uint64
	open    map[uint64]span
	spans   []span
	dropped int
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{base: time.Now(), open: map[uint64]span{}}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *spanRecorder) begin(name string, parent uint64) uint64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.base).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	r.open[r.next] = span{ID: r.next, Parent: parent, Name: name, Start: now}
	return r.next
}

// end closes the span with the given ID.
func (r *spanRecorder) end(id uint64) {
	if r == nil {
		return
	}
	now := time.Since(r.base).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, ok := r.open[id]
	if !ok {
		return
	}
	delete(r.open, id)
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	sp.End = now
	r.spans = append(r.spans, sp)
}

// do runs fn inside a span.
func (r *spanRecorder) do(name string, parent uint64, fn func(id uint64)) {
	id := r.begin(name, parent)
	fn(id)
	r.end(id)
}

// selfTimes returns, per span name, the total self time in milliseconds:
// each span's duration minus the part of it covered by its children.
// Overlapping children (concurrent requests under one phase) count once.
func selfTimes(spans []span) map[string]float64 {
	children := map[uint64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		covered := unionWithin(children[s.ID], s.Start, s.End)
		out[s.Name] += (s.End - s.Start - covered) * 1e3
	}
	return out
}

// unionWithin returns the length of the union of the intervals, clipped
// to [lo, hi].
func unionWithin(iv [][2]float64, lo, hi float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([][2]float64(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] })
	total, curLo, curHi := 0.0, 0.0, 0.0
	started := false
	for _, v := range s {
		a, b := max(v[0], lo), min(v[1], hi)
		if b <= a {
			continue
		}
		switch {
		case !started:
			curLo, curHi, started = a, b, true
		case a > curHi:
			total += curHi - curLo
			curLo, curHi = a, b
		case b > curHi:
			curHi = b
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// snapshot returns the closed spans recorded so far.
func (r *spanRecorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes the closed spans, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
