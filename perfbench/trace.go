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

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the ID of the span that caused this one, 0 for a request's top
// span.
type span struct {
	Req    string `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out. It is safe
// for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// do runs f inside a span named name and records it, also when f fails.
// f receives the new span's ID, to parent the spans of the calls it makes.
func (t *tracer) do(req string, parent int, name string, f func(id int) error) error {
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name})
	t.mu.Unlock()
	start := time.Since(t.epoch)
	err := f(id)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].Start, t.spans[id-1].End = int64(start), int64(end)
	t.mu.Unlock()
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations in milliseconds of every span with the
// given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfTimes maps each span ID to its self time: its duration minus the
// part of its interval that its children cover. Overlapping children are
// counted once.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	total += curHi - curLo
	return time.Duration(total)
}

// unaccountedShare is the share of the top spans named root that no
// descendant accounts for: the sum over those spans of their duration
// minus their descendants' self time, over the sum of their durations.
func unaccountedShare(spans []span, root string) float64 {
	self := selfTimes(spans)
	children := make(map[int][]int)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	var descSelf func(id int) time.Duration
	descSelf = func(id int) time.Duration {
		var d time.Duration
		for _, c := range children[id] {
			d += self[c] + descSelf(c)
		}
		return d
	}
	var top, unaccounted time.Duration
	for _, s := range spans {
		if s.Parent == 0 && s.Name == root {
			top += s.dur()
			unaccounted += s.dur() - descSelf(s.ID)
		}
	}
	return ratio(float64(unaccounted), float64(top))
}

// writeSpans writes the spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
