package pipeline_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bwtmatch"
	"bwtmatch/server"
	"bwtmatch/server/cluster"
)

// tier is one server tier under test: a worker answering directly, or
// a coordinator in front of an in-process worker.
type tier struct {
	name     string
	url      string
	shutdown func(context.Context) error
}

// limits are set on every tier so the oversize rows stay small.
const (
	maxBatch = 4
	maxK     = 8
	maxBody  = 1024
)

func newWorker(t *testing.T, genome []byte) (*server.Server, string) {
	t.Helper()
	idx, err := bwtmatch.New(genome)
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(server.Config{MaxBatch: maxBatch, MaxK: maxK, MaxBodyBytes: maxBody})
	if err := s.RegisterIndex("g", idx); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// newTiers starts a worker and a coordinator fronting a second worker,
// all serving index "g" over genome.
func newTiers(t *testing.T, genome []byte) []tier {
	t.Helper()
	ws, wurl := newWorker(t, genome)
	_, backend := newWorker(t, genome)
	co, err := cluster.New(cluster.Config{
		Workers:  []string{backend},
		MaxBatch: maxBatch, MaxK: maxK, MaxBodyBytes: maxBody,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(co.Handler())
	t.Cleanup(hs.Close)
	return []tier{
		{name: "worker", url: wurl, shutdown: ws.Shutdown},
		{name: "coordinator", url: hs.URL, shutdown: co.Shutdown},
	}
}

// reply is one response as the conformance table compares it.
type reply struct {
	code      int
	headerRID string
	body      []byte
	closed    bool // the server announced Connection: close
}

func do(t *testing.T, method, url, body, rid string) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if rid != "" {
		req.Header.Set(server.HeaderRequestID, rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return reply{code: resp.StatusCode, headerRID: resp.Header.Get(server.HeaderRequestID), body: b, closed: resp.Close}
}

// errorOf decodes a refusal strictly as server.ErrorResponse, so the
// body carries exactly the wire fields clients decode.
func errorOf(t *testing.T, where string, r reply) server.ErrorResponse {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(r.body))
	dec.DisallowUnknownFields()
	var e server.ErrorResponse
	if err := dec.Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("%s: no ErrorResponse in %q (%v)", where, r.body, err)
	}
	return e
}

// TestTierConformance runs one table of malformed searches against a
// worker and a coordinator: each row must get the same status and the
// same error text from both, with request_id echoing the response's
// X-Km-Request-Id header. Only an oversize body closes the connection,
// so the server does not read the rest of it.
func TestTierConformance(t *testing.T) {
	genome := make([]byte, 2000)
	rng := rand.New(rand.NewSource(5))
	for i := range genome {
		genome[i] = "acgt"[rng.Intn(4)]
	}
	tiers := newTiers(t, genome)

	cases := []struct {
		name, body string
		want       int
		closes     bool
	}{
		{"bad json", `{not json`, http.StatusBadRequest, false},
		{"unknown field", `{"index":"g","seq":"acgt","bogus":1}`, http.StatusBadRequest, false},
		{"trailing data", `{"index":"g","seq":"acgt"} extra`, http.StatusBadRequest, false},
		{"seq and reads", `{"index":"g","seq":"acgt","reads":[{"seq":"acgt"}]}`, http.StatusBadRequest, false},
		{"no reads", `{"index":"g","k":1}`, http.StatusBadRequest, false},
		{"oversize batch", `{"index":"g","reads":[{"seq":"a"},{"seq":"a"},{"seq":"a"},{"seq":"a"},{"seq":"a"}]}`,
			http.StatusRequestEntityTooLarge, false},
		{"oversize body", fmt.Sprintf(`{"index":"g","seq":%q}`, strings.Repeat("a", 2*maxBody)),
			http.StatusRequestEntityTooLarge, true},
		{"bad method", `{"index":"g","seq":"acgt","method":"quantum"}`, http.StatusBadRequest, false},
		{"k negative", `{"index":"g","seq":"acgt","k":-1}`, http.StatusBadRequest, false},
		{"k above MaxK", fmt.Sprintf(`{"index":"g","seq":"acgt","k":%d}`, maxK+1), http.StatusBadRequest, false},
		{"per-read k", `{"index":"g","reads":[{"seq":"acgt"},{"seq":"acgt","k":99}]}`, http.StatusBadRequest, false},
		{"no index", `{"k":1,"seq":"acgt"}`, http.StatusBadRequest, false},
	}
	for _, c := range cases {
		var texts []string
		for _, tr := range tiers {
			where := tr.name + ": " + c.name
			r := do(t, http.MethodPost, tr.url+"/v1/search", c.body, "")
			if r.code != c.want {
				t.Errorf("%s: status %d, want %d (body %s)", where, r.code, c.want, r.body)
			}
			if r.closed != c.closes {
				t.Errorf("%s: connection closed %v, want %v", where, r.closed, c.closes)
			}
			e := errorOf(t, where, r)
			if r.headerRID == "" || e.RequestID != r.headerRID {
				t.Errorf("%s: request_id %q, header %q", where, e.RequestID, r.headerRID)
			}
			texts = append(texts, e.Error)
		}
		if texts[0] != texts[1] {
			t.Errorf("%s: error text differs: %s %q, %s %q",
				c.name, tiers[0].name, texts[0], tiers[1].name, texts[1])
		}
	}

	// A caller-supplied request ID is adopted on success and on refusal.
	valid := fmt.Sprintf(`{"index":"g","k":1,"seq":%q}`, genome[100:130])
	for _, tr := range tiers {
		r := do(t, http.MethodPost, tr.url+"/v1/search", valid, "conf-rid-7")
		var sr server.SearchResponse
		if err := json.Unmarshal(r.body, &sr); err != nil || r.code != http.StatusOK {
			t.Fatalf("%s: valid search: %d %s", tr.name, r.code, r.body)
		}
		if r.headerRID != "conf-rid-7" || sr.RequestID != "conf-rid-7" {
			t.Errorf("%s: rid header %q body %q, want conf-rid-7", tr.name, r.headerRID, sr.RequestID)
		}
		r = do(t, http.MethodPost, tr.url+"/v1/search", `{not json`, "conf-rid-8")
		if e := errorOf(t, tr.name, r); r.headerRID != "conf-rid-8" || e.RequestID != "conf-rid-8" {
			t.Errorf("%s: refusal rid header %q body %q, want conf-rid-8", tr.name, r.headerRID, e.RequestID)
		}
	}

	// A bad method on the search route is the mux's 405 on both tiers.
	for _, tr := range tiers {
		if r := do(t, http.MethodGet, tr.url+"/v1/search", "", ""); r.code != http.StatusMethodNotAllowed {
			t.Errorf("%s: GET /v1/search: %d, want 405", tr.name, r.code)
		}
	}

	// Draining: searches and both probes answer 503 on both tiers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var texts []string
	for _, tr := range tiers {
		if err := tr.shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		r := do(t, http.MethodPost, tr.url+"/v1/search", valid, "")
		if r.code != http.StatusServiceUnavailable {
			t.Errorf("%s: search while draining: %d %s, want 503", tr.name, r.code, r.body)
		}
		e := errorOf(t, tr.name+": draining", r)
		if r.headerRID == "" || e.RequestID != r.headerRID {
			t.Errorf("%s: draining request_id %q, header %q", tr.name, e.RequestID, r.headerRID)
		}
		texts = append(texts, e.Error)
		for _, probe := range []string{"/healthz", "/readyz"} {
			if r := do(t, http.MethodGet, tr.url+probe, "", ""); r.code != http.StatusServiceUnavailable {
				t.Errorf("%s: %s while draining: %d, want 503", tr.name, probe, r.code)
			}
		}
	}
	if texts[0] != texts[1] {
		t.Errorf("draining error text differs: %q vs %q", texts[0], texts[1])
	}
}
