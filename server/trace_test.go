package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"bwtmatch/internal/obs"
)

// postRaw posts body with optional headers and returns the response.
func postRaw(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
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

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// No header: the server mints an ID and echoes it in header + body.
	resp, body := postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt","k":1}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	hdr := resp.Header.Get(HeaderRequestID)
	if hdr == "" {
		t.Fatalf("no %s header on success", HeaderRequestID)
	}
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.RequestID != hdr {
		t.Errorf("body request_id %q != header %q", sr.RequestID, hdr)
	}
	if len(sr.Trace) != 0 {
		t.Errorf("untraced request returned %d fragments", len(sr.Trace))
	}

	// Caller-supplied header: adopted verbatim.
	resp, body = postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt","k":1}`,
		map[string]string{HeaderRequestID: "creq-42-7"})
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get(HeaderRequestID) != "creq-42-7" || sr.RequestID != "creq-42-7" {
		t.Errorf("caller rid not adopted: header %q body %q",
			resp.Header.Get(HeaderRequestID), sr.RequestID)
	}
}

func TestRequestIDEchoedOnError(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, body := postRaw(t, ts.URL+"/v1/search", `{"index":"missing","seq":"acgt"}`,
		map[string]string{HeaderRequestID: "creq-err-1"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if resp.Header.Get(HeaderRequestID) != "creq-err-1" {
		t.Errorf("error response header rid = %q", resp.Header.Get(HeaderRequestID))
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "creq-err-1" || e.Error == "" {
		t.Errorf("error body = %+v, want request_id creq-err-1", e)
	}
}

func TestRequestIDEchoedOnShed(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Draining: every new search is shed with a 503 that still echoes
	// the rid and is visible in the flight recorder as a shed record.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, body := postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt"}`,
		map[string]string{HeaderRequestID: "creq-shed-9"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var e ErrorResponse
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "creq-shed-9" {
		t.Errorf("shed error body = %+v", e)
	}

	// The refusal itself is a flight-recorder record flagged shed.
	if s.flight.Total() != 1 {
		t.Fatalf("flight total = %d, want the shed record", s.flight.Total())
	}
	blob, err := json.Marshal(s.flight.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), `"shed":true`) ||
		!strings.Contains(string(blob), `"rid":"creq-shed-9"`) {
		t.Errorf("shed record missing from snapshot: %s", blob)
	}
}

func TestTraceHeaderReturnsFragment(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, body := postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt","k":1}`,
		map[string]string{HeaderTrace: "1", HeaderRequestID: "creq-tr-1"})
	var sr SearchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Trace) != 1 {
		t.Fatalf("traced request returned %d fragments, want 1", len(sr.Trace))
	}
	f := sr.Trace[0]
	if f.Process != "kmserved" || f.RequestID != "creq-tr-1" {
		t.Errorf("fragment identity = %q/%q", f.Process, f.RequestID)
	}
	names := map[string]bool{}
	for _, sp := range f.Spans {
		names[sp.Name] = true
	}
	if !names["queue"] || !names["search"] {
		t.Errorf("fragment spans = %+v, want queue and search", f.Spans)
	}
	// The fragment renders into a valid single-process Chrome trace.
	var sb strings.Builder
	if err := obs.WriteChromeTraceMulti(&sb, sr.Trace); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(strings.NewReader(sb.String())); err != nil {
		t.Errorf("fragment does not render to a valid trace: %v", err)
	}
}

func TestFlightRecorderEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt","k":1}`,
		map[string]string{HeaderRequestID: "creq-fr-1"})
	resp, err := http.Get(ts.URL + "/debug/flightrecorder")
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
			Reads    int                `json:"reads"`
			PhasesMS map[string]float64 `json:"phases_ms"`
		} `json:"recent"`
		Slowest []json.RawMessage `json:"slowest"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || len(doc.Recent) != 1 || len(doc.Slowest) != 1 {
		t.Fatalf("snapshot shape = %+v", doc)
	}
	if doc.Recent[0].RID != "creq-fr-1" || doc.Recent[0].Reads != 1 {
		t.Errorf("recent[0] = %+v", doc.Recent[0])
	}
	if _, ok := doc.Recent[0].PhasesMS["search"]; !ok {
		t.Errorf("no search phase in %v", doc.Recent[0].PhasesMS)
	}
}

func TestMetricsIncludeSLO(t *testing.T) {
	s, _ := newTestServer(t, Config{}, 2000)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postRaw(t, ts.URL+"/v1/search", `{"index":"g","seq":"acgt","k":1}`, nil)
	resp, err := http.Get(ts.URL + "/metrics")
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
		t.Fatalf("exposition with SLO series invalid: %v", err)
	}
	for _, want := range []string{
		"km_slo_latency_objective_ms",
		"km_slo_latency_good_total{objective_ms=",
		"km_slo_availability_total 1",
		`km_slo_burn_rate{slo="latency",window="5m"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in /metrics", want)
		}
	}
}
