package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer:
// the harness stamps the clock around the exported function it calls.
// Spans of one operation share Op; Parent is the ID of the span that
// caused this one, 0 for an operation's root.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps a traced pass's spans and per-operation counts in memory;
// they are written out once, when the pass is over. A nil *recorder is
// tracing switched off: every method is a no-op, so the untraced pass runs
// the same code without recording anything.
type recorder struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), counts: map[string][]float64{}}
}

// begin opens a span and returns its ID (0 when tracing is off).
func (r *recorder) begin(op, parent int, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name})
	r.spans[id-1].Start = int64(time.Since(r.epoch))
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// count records one operation's value of a counter measured at a layer
// boundary (rows transferred, bytes spilled, segments skipped).
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] = append(r.counts[name], v)
	r.mu.Unlock()
}

// selfTimes returns, per span name, every span's self time in
// milliseconds: its duration minus the part of its interval that its
// child spans cover. Children are clipped to the parent and overlapping
// children are counted once.
func selfTimes(spans []span) map[string][]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, upTo), min(k.End, s.End)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// write dumps the spans as one JSON document.
func (r *recorder) write(path string) error {
	data, err := json.Marshal(struct {
		Spans  []span               `json:"spans"`
		Counts map[string][]float64 `json:"counts"`
	}{r.spans, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
