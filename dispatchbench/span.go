package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one traced interval at a layer boundary. Start and End are
// nanoseconds since the recorder's origin; Parent is 0 for a root span.
// Frame is the simulation frame the span belongs to, or the request
// index on the serving workload.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Frame  int    `json:"frame"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// spans records spans in memory; they are written out once the run
// ends, so recording costs a clock read and an append.
type spans struct {
	origin time.Time
	list   []span
}

func newSpans() *spans { return &spans{origin: time.Now()} }

func (r *spans) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its ID.
func (r *spans) begin(name string, parent, frame int) int {
	r.list = append(r.list, span{ID: len(r.list) + 1, Parent: parent, Name: name, Frame: frame, Start: r.now()})
	return len(r.list)
}

// end closes the span with the given ID.
func (r *spans) end(id int) { r.list[id-1].End = r.now() }

// add records a span whose interval was measured elsewhere.
func (r *spans) add(name string, parent, frame int, start, end time.Time) int {
	r.list = append(r.list, span{ID: len(r.list) + 1, Parent: parent, Name: name, Frame: frame,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin))})
	return len(r.list)
}

// selfTimes returns each span's self time, indexed like list: its
// duration minus the part of its interval that its children cover.
// Overlapping children are counted once, and child time outside the
// parent's interval is ignored.
func selfTimes(list []span) []int64 {
	children := make(map[int][]span)
	for _, s := range list {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(list))
	for k, s := range list {
		self[k] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, c := range kids {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerTime is the span count and the summed durations and self times,
// in microseconds, of one span name.
type layerTime struct {
	n       int
	totalUs float64
	selfUs  float64
}

// layerTimes sums the spans per name.
func layerTimes(list []span) map[string]*layerTime {
	self := selfTimes(list)
	out := make(map[string]*layerTime)
	for k, s := range list {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		lt.n++
		lt.totalUs += float64(s.dur()) / 1e3
		lt.selfUs += float64(self[k]) / 1e3
	}
	return out
}

// write stores the spans as JSON lines, one span per line.
func (r *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.list {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
