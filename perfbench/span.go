package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer's public entry point, recorded
// from the benchmark's side of the call. Spans of one sampled item share
// Item and hang off one top span through Parent.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top span
	Name   string `json:"name"`
	Item   string `json:"item,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	Dur    int64  `json:"dur_ns"`
	// Replay marks a child that is not inside its parent's interval: a
	// re-execution of the parent's item one layer down, or a sum of many
	// sub-intervals (per-run phases). Its duration, not its interval, is
	// subtracted from the parent's self time.
	Replay bool `json:"replay,omitempty"`
}

// End is the span's end offset.
func (s Span) End() int64 { return s.Start + s.Dur }

// Tracer keeps spans in memory until the run ends. It is safe for
// concurrent use, as serve-mixed records from two client goroutines.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty tracer whose offsets count from now.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Add records a span that ran from start for dur and returns its ID.
func (t *Tracer) Add(parent int, name, item string, start time.Time, dur time.Duration, replay bool) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Item: item,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds(), Replay: replay,
	})
	return id
}

// Spans returns a copy of the recorded spans in ID order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// WriteJSONL writes one span per line to path.
func (t *Tracer) WriteJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return f.Close()
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval covered by its nested children (overlaps counted
// once, anything outside the parent clipped off) and minus the whole
// duration of its replay children. When children do not overlap and lie
// inside their parents, the self times of a tree sum to its top span.
func SelfTimes(spans []Span) map[int]int64 {
	children := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		v := s.Dur
		var ivs [][2]int64
		for _, c := range children[s.ID] {
			if c.Replay {
				v -= c.Dur
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End(), s.End())
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		self[s.ID] = v - unionLength(ivs)
	}
	return self
}

// unionLength is the total length covered by the intervals.
func unionLength(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] > curHi:
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		case iv[1] > curHi:
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// UnbalancedLadders counts the top spans whose subtree self times do
// not sum to the top span's duration. It is 0 whenever nested children
// neither overlap nor overrun their parents, which is how the
// benchmark records them.
func UnbalancedLadders(spans []Span) (tops, unbalanced int) {
	self := SelfTimes(spans)
	root := map[int]int{} // span ID → its top span's ID
	sums := map[int]int64{}
	for _, s := range spans { // parents precede children in ID order
		r := s.ID
		if s.Parent != 0 {
			r = root[s.Parent]
		}
		root[s.ID] = r
		sums[r] += self[s.ID]
	}
	for _, s := range spans {
		if s.Parent == 0 {
			tops++
			if sums[s.ID] != s.Dur {
				unbalanced++
			}
		}
	}
	return tops, unbalanced
}
