package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one run or one stepped range share Run;
// spans of one step share Step.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Run    int    `json:"run"`  // -1 outside a run
	Step   int    `json:"step"` // -1 outside a step
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans and counts in memory until write. It is used from one
// goroutine; worker-side observations are collected under a lock and turned
// into spans after the workers have finished.
type tracer struct {
	epoch  time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}}
}

func (t *tracer) at(ts time.Time) int64 { return ts.Sub(t.epoch).Nanoseconds() }

// open starts a span now; close ends it.
func (t *tracer) open(name string, parent, run, step int) int {
	return t.add(name, parent, run, step, time.Now(), time.Time{})
}

func (t *tracer) close(id int) { t.spans[id].End = t.at(time.Now()) }

// add records a span whose interval is already known.
func (t *tracer) add(name string, parent, run, step int, start, end time.Time) int {
	s := span{ID: len(t.spans), Parent: parent, Name: name, Run: run, Step: step, Start: t.at(start)}
	if !end.IsZero() {
		s.End = t.at(end)
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// selfTimes returns, per span, its duration minus the part of its interval
// covered by its children. Overlapping children are merged first, so time
// two children share is subtracted once, and child time outside the parent
// is ignored.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		self[i] = p.dur() - covered(p, children[p.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// durations returns the wall times, in ms, of every span with the name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// write stores the spans (with their self times) and counts as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	names := make([]string, 0, len(t.counts))
	for n := range t.counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := enc.Encode(map[string]any{"count": n, "value": t.counts[n]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}
