package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"bwtmatch/internal/obs"
	"bwtmatch/server"
)

// postJSON posts body with optional headers and returns the response
// plus its full body.
func postJSON(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, blob
}

func TestCoordinatorRequestIDEchoed(t *testing.T) {
	f := newFixture(t, 2, nil)

	// No header: minted and echoed in header + body.
	resp, body := postJSON(t, f.base+"/v1/search", `{"index":"g","seq":"acgt","k":1}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hdr := resp.Header.Get(server.HeaderRequestID)
	if hdr == "" {
		t.Fatalf("no %s header on success", server.HeaderRequestID)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.RequestID != hdr {
		t.Errorf("body request_id %q != header %q", sr.RequestID, hdr)
	}

	// Caller-supplied rid: adopted verbatim, echoed on errors too.
	resp, body = postJSON(t, f.base+"/v1/search", `{"index":"nope","seq":"acgt"}`,
		map[string]string{server.HeaderRequestID: "edge-rid-1"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(server.HeaderRequestID) != "edge-rid-1" || e.RequestID != "edge-rid-1" {
		t.Errorf("error rid: header %q body %q, want edge-rid-1",
			resp.Header.Get(server.HeaderRequestID), e.RequestID)
	}
}

func TestCoordinatorRequestIDEchoedOnShed(t *testing.T) {
	f := newFixture(t, 1, nil)

	// Draining: batches are refused but the refusal still carries the rid
	// and leaves a shed record in the flight recorder.
	if err := f.co.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, f.base+"/v1/search", `{"index":"g","seq":"acgt"}`,
		map[string]string{server.HeaderRequestID: "shed-rid-5"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "shed-rid-5" || resp.Header.Get(server.HeaderRequestID) != "shed-rid-5" {
		t.Errorf("shed rid: header %q body %+v", resp.Header.Get(server.HeaderRequestID), e)
	}
	if f.co.frec.Total() != 1 {
		t.Fatalf("flight total = %d, want the shed record", f.co.frec.Total())
	}
	blob, err := json.Marshal(f.co.frec.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"shed":true`) ||
		!strings.Contains(string(blob), `"rid":"shed-rid-5"`) {
		t.Errorf("shed record missing from snapshot: %s", blob)
	}
}

// TestCoordinatorTraceAssembly is the tentpole property: one traced
// batch produces a single cross-process timeline — the coordinator's
// fragment (plan/route/fanout/subset/rpc/merge/assemble spans) followed
// by one fragment per answering worker, every fragment carrying the
// same request ID and the worker ones relabelled with the worker URL.
func TestCoordinatorTraceAssembly(t *testing.T) {
	f := newFixture(t, 2, nil)

	ctx := obs.WithTraceRequest(obs.WithRequestID(context.Background(), "trace-rid-1"))
	resp, err := f.cl.Search(ctx, server.SearchRequest{Index: "g", Seq: "acgtacgt", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "trace-rid-1" {
		t.Errorf("request_id = %q", resp.RequestID)
	}
	if len(resp.Trace) < 2 {
		t.Fatalf("%d fragments, want coordinator + at least one worker", len(resp.Trace))
	}
	coFrag := resp.Trace[0]
	if coFrag.Process != "coordinator" || coFrag.RequestID != "trace-rid-1" {
		t.Fatalf("first fragment = %q/%q, want coordinator/trace-rid-1",
			coFrag.Process, coFrag.RequestID)
	}
	names := map[string]bool{}
	for _, sp := range coFrag.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"plan", "route", "fanout", "subset", "rpc", "merge", "assemble"} {
		if !names[want] {
			t.Errorf("coordinator fragment missing span %q (have %v)", want, names)
		}
	}
	workerURLs := map[string]bool{}
	for _, wf := range resp.Trace[1:] {
		if wf.RequestID != "trace-rid-1" {
			t.Errorf("worker fragment rid = %q", wf.RequestID)
		}
		if !strings.HasPrefix(wf.Process, "http://") {
			t.Errorf("worker fragment process %q not relabelled to its URL", wf.Process)
		}
		workerURLs[wf.Process] = true
		ok := false
		for _, sp := range wf.Spans {
			if sp.Name == "search" {
				ok = true
			}
		}
		if !ok {
			t.Errorf("worker fragment %q has no search span", wf.Process)
		}
	}
	// Two workers each own a shard subset of the 5-shard index, so both
	// must appear as distinct process lanes.
	if len(workerURLs) != 2 {
		t.Errorf("worker lanes = %v, want both workers", workerURLs)
	}
	// The assembled slice renders to one valid multi-process Chrome trace.
	var sb strings.Builder
	if err := obs.WriteChromeTraceMulti(&sb, resp.Trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Errorf("assembled timeline invalid: %v", err)
	}

	// An untraced batch returns no fragments.
	resp, err = f.cl.Search(context.Background(), server.SearchRequest{Index: "g", Seq: "acgt"})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Trace) != 0 {
		t.Errorf("untraced batch returned %d fragments", len(resp.Trace))
	}
}

func TestCoordinatorDebugTrace(t *testing.T) {
	f := newFixture(t, 2, func(c *Config) { c.TraceSample = 1 })

	// Before any batch: 404.
	resp, err := http.Get(f.base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace before any batch: status %d", resp.StatusCode)
	}

	// TraceSample=1: an ordinary batch (no X-Km-Trace header) is sampled
	// and its timeline becomes available on /debug/trace.
	if _, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", Seq: "acgtacgt", K: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(f.base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d", resp.StatusCode)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(strings.NewReader(string(blob))); err != nil {
		t.Fatalf("/debug/trace document invalid: %v\n%s", err, blob)
	}
	// The timeline must span processes: coordinator + both workers.
	var doc struct {
		Events []struct {
			Phase string         `json:"ph"`
			Name  string         `json:"name"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.Events {
		if ev.Phase == "M" && ev.Name == "process_name" {
			if name, ok := ev.Args["name"].(string); ok {
				procs[name] = true
			}
		}
	}
	if len(procs) != 3 || !procs["coordinator"] {
		t.Errorf("process lanes = %v, want coordinator + 2 workers", procs)
	}
	if got := f.co.met.TracesTotal.Load(); got != 1 {
		t.Errorf("km_cluster_traces_total = %d, want 1", got)
	}
}

func TestCoordinatorFlightRecorderEndpoint(t *testing.T) {
	f := newFixture(t, 1, nil)

	if _, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", Seq: "acgtacgt", K: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight recorder status %d", resp.StatusCode)
	}
	var doc struct {
		Total  uint64   `json:"total"`
		Phases []string `json:"phases"`
		Recent []struct {
			RID      string             `json:"rid"`
			Index    string             `json:"index"`
			PhasesMS map[string]float64 `json:"phases_ms"`
		} `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || len(doc.Recent) != 1 {
		t.Fatalf("snapshot shape = %+v", doc)
	}
	if want := []string{"plan", "route", "fanout", "merge", "assemble"}; len(doc.Phases) != len(want) {
		t.Errorf("phases = %v, want %v", doc.Phases, want)
	}
	r0 := doc.Recent[0]
	if r0.Index != "g" || r0.RID == "" {
		t.Errorf("recent[0] = %+v", r0)
	}
	if _, ok := r0.PhasesMS["fanout"]; !ok {
		t.Errorf("no fanout phase in %v", r0.PhasesMS)
	}
}

func TestCoordinatorMetricsIncludeSLO(t *testing.T) {
	f := newFixture(t, 1, nil)

	if _, err := f.cl.Search(context.Background(), server.SearchRequest{Index: "g", Seq: "acgt", K: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(f.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(blob)
	if err := obs.ValidateExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("coordinator exposition invalid: %v", err)
	}
	for _, want := range []string{
		"km_cluster_traces_total",
		"km_slo_latency_objective_ms",
		"km_slo_availability_total 1",
		`km_slo_burn_rate{slo="availability",window="1h"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in coordinator /metrics", want)
		}
	}
}
