package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFragmentBuilderSpansAndMarks(t *testing.T) {
	b := NewFragmentBuilder("coordinator", "req-42")
	b.Span(0, "plan", 0, 3*time.Millisecond, Arg{"reads", 5})
	b.Span(2, "fanout", time.Millisecond, 4*time.Millisecond)
	b.Mark(2, "retry", Arg{"attempt", 1})
	// A bad bracket (end before start) clamps to zero duration rather
	// than emitting a negative-width span.
	b.Span(1, "backwards", 5*time.Millisecond, 2*time.Millisecond)

	f := b.Fragment()
	if f.Process != "coordinator" || f.RequestID != "req-42" {
		t.Fatalf("fragment identity = %q/%q", f.Process, f.RequestID)
	}
	if len(f.Spans) != 3 || len(f.Marks) != 1 {
		t.Fatalf("got %d spans, %d marks", len(f.Spans), len(f.Marks))
	}
	if f.Spans[0].Name != "plan" || f.Spans[0].Args["reads"] != 5 {
		t.Errorf("span 0 = %+v", f.Spans[0])
	}
	if f.Spans[0].DurUS != 3000 {
		t.Errorf("plan dur = %v us, want 3000", f.Spans[0].DurUS)
	}
	if f.Spans[2].DurUS != 0 {
		t.Errorf("backwards span dur = %v, want clamped 0", f.Spans[2].DurUS)
	}
	if f.Marks[0].TID != 2 || f.Marks[0].Args["attempt"] != 1 {
		t.Errorf("mark = %+v", f.Marks[0])
	}

	// Fragment returns a copy: appending afterwards must not alias.
	b.Span(0, "late", 0, time.Millisecond)
	if len(f.Spans) != 3 {
		t.Fatalf("snapshot grew after later Span call")
	}
}

// TestNilFragmentBuilderRecordsNothing pins the untraced path: the
// servers call Now, Span and Mark on a nil builder without a guard.
func TestNilFragmentBuilderRecordsNothing(t *testing.T) {
	var b *FragmentBuilder
	if b.Now() != 0 {
		t.Errorf("nil builder Now = %v, want 0", b.Now())
	}
	b.Span(1, "plan", 0, b.Now(), Arg{Key: "reads", Val: 1})
	b.Mark(1, "retry")
}

func TestFragmentBuilderConcurrent(t *testing.T) {
	b := NewFragmentBuilder("w", "")
	var wg sync.WaitGroup
	for lane := 1; lane <= 8; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Span(lane, "s", 0, time.Microsecond)
				b.Mark(lane, "m")
			}
		}(lane)
	}
	wg.Wait()
	f := b.Fragment()
	if len(f.Spans) != 400 || len(f.Marks) != 400 {
		t.Fatalf("got %d spans, %d marks; want 400 each", len(f.Spans), len(f.Marks))
	}
}

// TestWriteChromeTraceMultiLanes pins the multi-process layout: fragment
// i becomes pid i+1 with a process_name metadata event, every event
// lands in its fragment's pid, and tid 0 renders as lane 1.
func TestWriteChromeTraceMultiLanes(t *testing.T) {
	frags := []Fragment{
		{
			Process:   "coordinator",
			RequestID: "req-1",
			Spans: []Span{
				{Name: "plan", TID: 0, StartUS: 0, DurUS: 100},
				{Name: "subset", TID: 3, StartUS: 10, DurUS: 80, Args: map[string]int64{"shards": 2}},
			},
			Marks: []Mark{{Name: "retry", TID: 3, TimeUS: 50}},
		},
		{
			Process: "http://worker-0",
			Spans:   []Span{{Name: "search", TID: 0, StartUS: 5, DurUS: 60}},
		},
	}
	var sb strings.Builder
	if err := WriteChromeTraceMulti(&sb, frags); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("writer output fails its own validator: %v\n%s", err, sb.String())
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.TraceEvents) != 6 {
		t.Fatalf("got %d events, want 6:\n%s", len(doc.TraceEvents), sb.String())
	}

	byName := map[string][]int{}
	metaNames := map[int]string{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "M" {
			if e.Name != "process_name" {
				t.Errorf("metadata event named %q", e.Name)
			}
			metaNames[e.PID], _ = e.Args["name"].(string)
			continue
		}
		byName[e.Name] = append(byName[e.Name], e.PID)
		switch e.Name {
		case "plan":
			if e.Ph != "X" || e.TID != 1 || e.Dur != 100 {
				t.Errorf("plan event = %+v (want X, tid 1, dur 100)", e)
			}
		case "subset":
			if e.TID != 3 || e.Args["shards"] != float64(2) {
				t.Errorf("subset event = %+v", e)
			}
		case "retry":
			if e.Ph != "i" || e.S != "t" || e.TID != 3 {
				t.Errorf("retry event = %+v (want thread-scoped instant)", e)
			}
		case "search":
			if e.PID != 2 || e.TID != 1 {
				t.Errorf("search event = %+v (want pid 2, tid 1)", e)
			}
		}
	}
	if metaNames[1] != "coordinator" || metaNames[2] != "http://worker-0" {
		t.Errorf("process_name lanes = %v", metaNames)
	}
	for _, name := range []string{"plan", "subset", "retry"} {
		for _, pid := range byName[name] {
			if pid != 1 {
				t.Errorf("%s event in pid %d, want 1", name, pid)
			}
		}
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty doc", `{"traceEvents":[]}`},
		{"not json", `nope`},
		{"missing name", `{"traceEvents":[{"ph":"X","pid":1,"tid":1}]}`},
		{"unknown phase", `{"traceEvents":[{"name":"a","ph":"Q","pid":1,"tid":1}]}`},
		{"zero pid", `{"traceEvents":[{"name":"a","ph":"X","pid":0,"tid":1}]}`},
		{"negative ts", `{"traceEvents":[{"name":"a","ph":"X","ts":-1,"pid":1,"tid":1}]}`},
		{"metadata only", `{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":1}]}`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := ValidateChromeTrace(strings.NewReader(c.in)); err == nil {
				t.Errorf("accepted invalid trace %s", c.in)
			}
		})
	}
}

// Fragments must survive a JSON round trip unchanged — they ride inside
// SearchResponse between worker and coordinator.
func TestFragmentJSONRoundTrip(t *testing.T) {
	in := Fragment{
		Process:   "http://w1",
		RequestID: "r-9",
		Spans:     []Span{{Name: "search", TID: 2, StartUS: 1.5, DurUS: 42, Args: map[string]int64{"reads": 3}}},
		Marks:     []Mark{{Name: "memo", TimeUS: 7}},
	}
	blob, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Fragment
	if err := json.Unmarshal(blob, &out); err != nil {
		t.Fatal(err)
	}
	if out.Process != in.Process || out.RequestID != in.RequestID ||
		len(out.Spans) != 1 || out.Spans[0].Args["reads"] != 3 ||
		len(out.Marks) != 1 || out.Marks[0].TimeUS != 7 {
		t.Fatalf("round trip mangled fragment: %+v", out)
	}
}
