package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Span is one completed phase inside a process's trace fragment. Times
// are microsecond offsets from the fragment's own start, so a fragment
// is self-contained on the wire and the assembler never needs the two
// processes' clocks to agree — only the coordinator's send/receive span
// brackets the worker's fragment in the merged timeline.
type Span struct {
	// Name is the phase name ("fanout", "search", "merge", ...).
	Name string `json:"name"`
	// TID is the logical lane inside the process (one per shard subset
	// on the coordinator, one per worker batch lane). 0 renders as 1.
	TID int `json:"tid,omitempty"`
	// StartUS and DurUS position the span in microseconds.
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	// Args carries integer annotations (read counts, retry ordinals,
	// the paper's work counters).
	Args map[string]int64 `json:"args,omitempty"`
}

// Mark is one instant event inside a fragment (a retry, a cache hit, a
// shed decision) at a microsecond offset.
type Mark struct {
	Name   string           `json:"name"`
	TID    int              `json:"tid,omitempty"`
	TimeUS float64          `json:"time_us"`
	Args   map[string]int64 `json:"args,omitempty"`
}

// Fragment is one process's contribution to a cross-process trace: the
// worker half of the span-fragment wire contract (DESIGN.md §7). A
// sampled worker returns its fragment inside the SearchResponse; the
// coordinator appends its own fragment and renders the set as one
// Chrome timeline with a pid lane per process.
type Fragment struct {
	// Process names the originating process ("coordinator", a worker's
	// base URL). It becomes the Chrome process_name lane label.
	Process string `json:"process"`
	// RequestID is the X-Km-Request-Id the fragment belongs to.
	RequestID string `json:"request_id,omitempty"`
	Spans     []Span `json:"spans"`
	Marks     []Mark `json:"marks,omitempty"`
}

// FragmentBuilder accumulates spans and marks for one process's
// fragment. It is safe for concurrent use — the coordinator's subset
// goroutines record into distinct TID lanes of one builder. The zero
// value is not usable; construct with NewFragmentBuilder. A nil builder
// records nothing (Now is 0, Span and Mark do nothing), so code paths
// shared by traced and untraced requests need no nil checks.
type FragmentBuilder struct {
	mu    sync.Mutex
	frag  Fragment
	start time.Time
}

// NewFragmentBuilder starts an empty fragment; span offsets are
// measured from this call.
func NewFragmentBuilder(process, requestID string) *FragmentBuilder {
	return &FragmentBuilder{
		frag:  Fragment{Process: process, RequestID: requestID},
		start: time.Now(),
	}
}

// Now returns the current offset from the builder's start, for callers
// that want to bracket a phase themselves before calling Span.
func (b *FragmentBuilder) Now() time.Duration {
	if b == nil {
		return 0
	}
	return time.Since(b.start)
}

// Span records one completed phase on the given lane, from start to
// end offsets (as returned by Now).
func (b *FragmentBuilder) Span(tid int, name string, start, end time.Duration, args ...Arg) {
	if b == nil {
		return
	}
	s := Span{
		Name:    name,
		TID:     tid,
		StartUS: float64(start.Nanoseconds()) / 1e3,
		DurUS:   float64((end - start).Nanoseconds()) / 1e3,
	}
	if s.DurUS < 0 {
		s.DurUS = 0
	}
	s.Args = argMap(args)
	b.mu.Lock()
	b.frag.Spans = append(b.frag.Spans, s)
	b.mu.Unlock()
}

// Mark records one instant event on the given lane at the current
// offset.
func (b *FragmentBuilder) Mark(tid int, name string, args ...Arg) {
	if b == nil {
		return
	}
	m := Mark{
		Name:   name,
		TID:    tid,
		TimeUS: float64(b.Now().Nanoseconds()) / 1e3,
		Args:   argMap(args),
	}
	b.mu.Lock()
	b.frag.Marks = append(b.frag.Marks, m)
	b.mu.Unlock()
}

// Fragment returns a copy of everything recorded so far.
func (b *FragmentBuilder) Fragment() Fragment {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.frag
	out.Spans = append([]Span(nil), b.frag.Spans...)
	if b.frag.Marks != nil {
		out.Marks = append([]Mark(nil), b.frag.Marks...)
	}
	return out
}

// argMap renders Args as the wire/Chrome map form; nil when empty.
func argMap(args []Arg) map[string]int64 {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]int64, len(args))
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// WriteChromeTraceMulti renders a set of fragments as one Chrome
// trace-event document: fragment i becomes pid i+1 with a process_name
// metadata event, spans become complete ("X") events and marks become
// thread-scoped instants, so about:tracing and Perfetto show one lane
// group per process. Span offsets are kept fragment-relative: each
// process's lane starts at its own zero, which is exactly the wire
// contract (fragments carry no cross-process clock).
func WriteChromeTraceMulti(w io.Writer, frags []Fragment) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	for i, f := range frags {
		pid := i + 1
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			TID:  1,
			Args: map[string]string{"name": f.Process},
		})
		for _, s := range f.Spans {
			ce := chromeEvent{
				Name: s.Name,
				Ph:   "X",
				TS:   s.StartUS,
				Dur:  s.DurUS,
				PID:  pid,
				TID:  max(s.TID, 1),
			}
			if len(s.Args) > 0 {
				ce.Args = s.Args
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
		for _, m := range f.Marks {
			ce := chromeEvent{
				Name: m.Name,
				Ph:   "i",
				S:    "t",
				TS:   m.TimeUS,
				PID:  pid,
				TID:  max(m.TID, 1),
			}
			if len(m.Args) > 0 {
				ce.Args = m.Args
			}
			out.TraceEvents = append(out.TraceEvents, ce)
		}
	}
	return json.NewEncoder(w).Encode(out)
}

// ValidateChromeTrace checks that r is a well-formed Chrome trace-event
// document: a traceEvents array whose entries all carry a name, a known
// phase and positive pid/tid, with at least one non-metadata event. It
// is the schema check the trace smoke tests run on dumped timelines.
func ValidateChromeTrace(r io.Reader) error {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("chrome trace: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("chrome trace: no traceEvents")
	}
	real := 0
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("chrome trace: event %d has no name", i)
		}
		switch e.Ph {
		case "B", "E", "X", "i", "M":
		default:
			return fmt.Errorf("chrome trace: event %d has unknown phase %q", i, e.Ph)
		}
		if e.PID <= 0 || e.TID <= 0 {
			return fmt.Errorf("chrome trace: event %d has non-positive pid/tid", i)
		}
		if e.TS < 0 {
			return fmt.Errorf("chrome trace: event %d has negative timestamp", i)
		}
		if e.Ph != "M" {
			real++
		}
	}
	if real == 0 {
		return fmt.Errorf("chrome trace: only metadata events")
	}
	return nil
}
