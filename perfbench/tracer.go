package main

import (
	"time"

	"bwtmatch/internal/obs"
)

// Span names the search core opens (internal/core): phi nests inside
// traverse, locate follows it.
var spanNames = [...]string{"phi", "traverse", "locate"}

const (
	spanPhi = iota
	spanTraverse
	spanLocate
	numSpans
)

// spanTracer is the benchmark's own bwtmatch.Tracer: it keeps no event
// log, only per-span self time (a span's duration minus its child
// spans') and per-kind event counts, so one goroutine can trace
// thousands of reads at constant memory. Not safe for concurrent use;
// pin one per goroutine and merge.
type spanTracer struct {
	stack      []frame
	selfNS     [numSpans]int64
	events     [obs.EvLocate + 1]int64
	locateRows int64
	phiSteps   int64
}

type frame struct {
	span    int
	start   time.Time
	childNS int64
}

func spanIndex(name string) int {
	for i, n := range spanNames {
		if n == name {
			return i
		}
	}
	return -1
}

func (t *spanTracer) Begin(name string) {
	t.stack = append(t.stack, frame{span: spanIndex(name), start: time.Now()})
}

func (t *spanTracer) End(args ...obs.Arg) {
	n := len(t.stack)
	if n == 0 {
		return
	}
	f := t.stack[n-1]
	t.stack = t.stack[:n-1]
	d := time.Since(f.start).Nanoseconds()
	if f.span >= 0 {
		t.selfNS[f.span] += d - f.childNS
	}
	if n > 1 {
		t.stack[n-2].childNS += d
	}
	if f.span == spanPhi {
		for _, a := range args {
			if a.Key == "step_calls" {
				t.phiSteps += a.Val
			}
		}
	}
}

func (t *spanTracer) Emit(kind obs.EventKind, args ...obs.Arg) {
	if int(kind) < len(t.events) {
		t.events[kind]++
	}
	if kind == obs.EvLocate {
		for _, a := range args {
			if a.Key == "rows" {
				t.locateRows += a.Val
			}
		}
	}
}

func (t *spanTracer) add(o *spanTracer) {
	for i := range t.selfNS {
		t.selfNS[i] += o.selfNS[i]
	}
	for i := range t.events {
		t.events[i] += o.events[i]
	}
	t.locateRows += o.locateRows
	t.phiSteps += o.phiSteps
}
