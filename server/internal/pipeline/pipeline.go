// Package pipeline holds the request steps that the kmserved worker
// (package server) and the cluster coordinator (server/cluster) share,
// so both tiers refuse, shed and report a request alike. A POST
// /v1/search is accepted (request ID adopted or minted and echoed, body
// decoded and validated), admitted (drain gate, deadline, concurrency
// slot), and then run by the tier's own step. Refusals are written by
// Fail and, once a batch was accepted, recorded by RecordShed.
//
// Package server imports this one, so Request and Read restate the JSON
// of server.SearchRequest and server.Read (TestWireShapes pins them
// together), and the method table behind server.ParseMethod lives here.
package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
)

// HeaderRequestID is server.HeaderRequestID.
const HeaderRequestID = "X-Km-Request-Id"

// Request is the decoded body of POST /v1/search (server.SearchRequest).
type Request struct {
	Index     string `json:"index"`
	K         int    `json:"k"`
	Method    string `json:"method,omitempty"`
	Seq       string `json:"seq,omitempty"`
	Reads     []Read `json:"reads,omitempty"`
	TimeoutMS int    `json:"timeout_ms,omitempty"`
	Shards    []int  `json:"shards,omitempty"`
}

// Read is one read of a Request (server.Read).
type Read struct {
	ID  string `json:"id,omitempty"`
	Seq string `json:"seq"`
	K   *int   `json:"k,omitempty"`
}

// methods maps wire names to matchers, mirroring cmd/kmsearch.
var methods = map[string]bwtmatch.Method{
	"":       bwtmatch.AlgorithmA,
	"a":      bwtmatch.AlgorithmA,
	"bwt":    bwtmatch.BWTBaseline,
	"stree":  bwtmatch.STree,
	"amir":   bwtmatch.Amir,
	"cole":   bwtmatch.Cole,
	"online": bwtmatch.Online,
	"seed":   bwtmatch.Seed,
}

// ParseMethod implements server.ParseMethod.
func ParseMethod(name string) (bwtmatch.Method, error) {
	m, ok := methods[name]
	if !ok {
		return 0, fmt.Errorf("unknown method %q", name)
	}
	return m, nil
}

// MethodName implements server.MethodName.
func MethodName(m bwtmatch.Method) string {
	for name, mm := range methods {
		if mm == m && name != "" {
			return name
		}
	}
	return ""
}

// Limits bound every request. Both tiers' Configs carry these five
// fields under the same names; New gives a zero field its default.
type Limits struct {
	MaxBatch       int           // reads per request (default 4096)
	MaxK           int           // per-read mismatch budget (default 64)
	MaxConcurrent  int           // batches executing at once (default 16)
	DefaultTimeout time.Duration // bound of a request without timeout_ms (default 30s)
	MaxBodyBytes   int64         // request body size (default 64 MiB)
}

func orDefault[T int | int64 | time.Duration](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// Config wires a Pipeline into one tier.
type Config struct {
	Limits   Limits
	IDPrefix string // starts every minted request ID ("req-", "creq-")
	Role     string // reported as "role" by healthy probes, when set
	// Warming, when set, holds /readyz at 503 while it reports true.
	Warming  func() bool
	Rejected *obs.ShardedCounter // counts every refusal Fail writes
	Flight   *obs.FlightRecorder // receives shed records
	SLO      *obs.SLO            // observes sheds as unavailability
	Log      *slog.Logger
}

// Pipeline runs the shared request steps of one tier.
type Pipeline struct {
	cfg   Config
	sem   chan struct{} // MaxConcurrent slots
	reqID atomic.Int64

	mu       sync.Mutex
	draining bool
	inflight int // admitted batches
	// drained closes once draining is set and inflight reaches zero;
	// Drain selects on it, so no waiter goroutine is ever spawned
	// (kmvet goroutinelifecycle).
	drained       chan struct{}
	drainedClosed bool
}

// New builds a Pipeline, applying the Limits defaults.
func New(cfg Config) *Pipeline {
	l := &cfg.Limits
	orDefault(&l.MaxBatch, 4096)
	orDefault(&l.MaxK, 64)
	orDefault(&l.MaxConcurrent, 16)
	orDefault(&l.DefaultTimeout, 30*time.Second)
	orDefault(&l.MaxBodyBytes, 64<<20)
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	return &Pipeline{cfg: cfg, sem: make(chan struct{}, l.MaxConcurrent), drained: make(chan struct{})}
}

// Limits returns the limits in force, defaults applied.
func (p *Pipeline) Limits() Limits { return p.cfg.Limits }

// Batch is an accepted search: validated, with every pattern sanitized
// and every read's k resolved into Queries.
type Batch struct {
	RID     string
	Arrive  time.Time
	Index   string
	Method  bwtmatch.Method
	Queries []bwtmatch.Query
	// K and TimeoutMS are the request-level values as sent, which a
	// coordinator forwards to its workers.
	K         int
	TimeoutMS int
	Shards    []int
	Timeout   time.Duration // timeout_ms capped by DefaultTimeout
	Queued    time.Duration // wait for a concurrency slot, set by Admit
}

// Accept adopts the caller's request ID or mints one and echoes it
// before anything can fail, then decodes and validates the body. A
// refused request has been answered when ok is false.
func (p *Pipeline) Accept(w http.ResponseWriter, r *http.Request) (b *Batch, ok bool) {
	b = &Batch{RID: r.Header.Get(HeaderRequestID), Arrive: time.Now()}
	if b.RID == "" {
		b.RID = fmt.Sprintf("%s%06d", p.cfg.IDPrefix, p.reqID.Add(1))
	}
	w.Header().Set(HeaderRequestID, b.RID)
	var req Request
	code, err := p.DecodeBody(w, r, &req)
	if err != nil {
		err = fmt.Errorf("bad request body: %w", err)
	} else {
		code, err = p.validate(&req, b)
	}
	if err != nil {
		p.Fail(w, b.RID, code, "%v", err)
		return nil, false
	}
	return b, true
}

// validate fills b from req, or returns the status to refuse it with.
func (p *Pipeline) validate(req *Request, b *Batch) (int, error) {
	method, err := ParseMethod(req.Method)
	if err != nil {
		return http.StatusBadRequest, err
	}
	reads := req.Reads
	if req.Seq != "" {
		if len(reads) > 0 {
			return http.StatusBadRequest, errors.New("set either seq or reads, not both")
		}
		reads = []Read{{Seq: req.Seq}}
	}
	lim := p.cfg.Limits
	switch {
	case len(reads) == 0:
		return http.StatusBadRequest, errors.New("no reads in request")
	case len(reads) > lim.MaxBatch:
		return http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d exceeds limit %d", len(reads), lim.MaxBatch)
	case req.Index == "":
		return http.StatusBadRequest, errors.New("index is required")
	}
	queries := make([]bwtmatch.Query, len(reads))
	for i, rd := range reads {
		k := req.K
		if rd.K != nil {
			k = *rd.K
		}
		if k < 0 || k > lim.MaxK {
			return http.StatusBadRequest, fmt.Errorf("read %d: k=%d outside [0,%d]", i, k, lim.MaxK)
		}
		clean, _ := bwtmatch.Sanitize([]byte(rd.Seq))
		queries[i] = bwtmatch.Query{ID: rd.ID, Pattern: clean, K: k}
	}
	b.Index, b.Method, b.Queries = req.Index, method, queries
	b.K, b.TimeoutMS, b.Shards = req.K, req.TimeoutMS, req.Shards
	b.Timeout = lim.DefaultTimeout
	if t := time.Duration(req.TimeoutMS) * time.Millisecond; t > 0 && t < b.Timeout {
		b.Timeout = t
	}
	return http.StatusOK, nil
}

// DecodeBody decodes a JSON body capped at MaxBodyBytes into v,
// rejecting unknown fields and trailing data: 413 for a body over the
// cap, 400 otherwise. Handing w to MaxBytesReader makes the server close
// the connection rather than read the rest of an oversize body.
func (p *Pipeline) DecodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, p.cfg.Limits.MaxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	// A second decode must hit EOF; anything else is trailing data.
	if err == nil && dec.Decode(new(json.RawMessage)) != io.EOF {
		return http.StatusBadRequest, errors.New("trailing data after JSON body")
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// Admit passes an accepted batch through the drain gate, sets its
// deadline and takes a concurrency slot, billing the wait to the
// deadline. A batch refused at either gate is shed (503 plus a shed
// record). Otherwise the tier runs its step under ctx, then calls done.
func (p *Pipeline) Admit(w http.ResponseWriter, r *http.Request, b *Batch) (ctx context.Context, done func(), ok bool) {
	if !p.begin() {
		p.shed(w, b, "service is draining")
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(obs.WithRequestID(r.Context(), b.RID), b.Timeout)
	// A free slot is taken unconditionally, so an already-expired
	// deadline surfaces as per-read errors instead of racing the select.
	queued := time.Now()
	select {
	case p.sem <- struct{}{}:
	default:
		select {
		case p.sem <- struct{}{}:
		case <-ctx.Done():
			cancel()
			p.end()
			p.shed(w, b, "timed out waiting for a search slot")
			return nil, nil, false
		}
	}
	b.Queued = time.Since(queued)
	return ctx, func() {
		<-p.sem
		cancel()
		p.end()
	}, true
}

func (p *Pipeline) shed(w http.ResponseWriter, b *Batch, msg string) {
	p.Fail(w, b.RID, http.StatusServiceUnavailable, "%s", msg)
	p.RecordShed(b)
}

// begin admits one batch unless draining has started; end retires it.
func (p *Pipeline) begin() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining {
		return false
	}
	p.inflight++
	return true
}

func (p *Pipeline) end() {
	p.mu.Lock()
	p.inflight--
	p.signalDrainedLocked()
	p.mu.Unlock()
}

// signalDrainedLocked closes drained once draining has begun and the
// last admitted batch has ended. Caller holds p.mu.
func (p *Pipeline) signalDrainedLocked() {
	if p.draining && p.inflight == 0 && !p.drainedClosed {
		p.drainedClosed = true
		close(p.drained)
	}
}

// Drain stops admitting batches and waits until the admitted ones have
// ended or ctx expires. It is idempotent.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.mu.Lock()
	p.draining = true
	p.signalDrainedLocked()
	p.mu.Unlock()
	select {
	case <-p.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Drain has been called.
func (p *Pipeline) Draining() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.draining
}

// Fail writes a refusal as an ErrorResponse echoing rid (empty on
// endpoints without one), counts it in Rejected and logs it.
func (p *Pipeline) Fail(w http.ResponseWriter, rid string, code int, format string, args ...any) {
	p.cfg.Rejected.Add(1)
	msg := fmt.Sprintf(format, args...)
	if rid != "" {
		p.cfg.Log.Warn("request rejected", "rid", rid, "code", code, "error", msg)
	} else {
		p.cfg.Log.Warn("request rejected", "code", code, "error", msg)
	}
	WriteJSON(w, code, struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id,omitempty"`
	}{msg, rid})
}

// RecordShed notes a refused batch in the flight recorder and the SLO
// ring: shedding is an availability event, and /debug/flightrecorder
// alone then answers what was refused and when.
func (p *Pipeline) RecordShed(b *Batch) {
	elapsed := time.Since(b.Arrive)
	p.cfg.Flight.Record(&obs.QueryRecord{
		Start:     b.Arrive,
		RID:       b.RID,
		Index:     b.Index,
		Method:    MethodName(b.Method),
		ElapsedNS: int64(elapsed),
		Reads:     int32(len(b.Queries)),
		Shed:      true,
	})
	p.cfg.SLO.Observe(elapsed, false)
}

// HandleHealth is the liveness probe: 200 until Drain, 503 after.
func (p *Pipeline) HandleHealth(w http.ResponseWriter, r *http.Request) { p.probe(w, "ok", false) }

// HandleReady is the readiness probe. It also fails while the tier is
// warming, although the process is alive, so a fleet scheduler keeps it
// out of rotation; Retry-After says when to probe again.
func (p *Pipeline) HandleReady(w http.ResponseWriter, r *http.Request) {
	p.probe(w, "ready", p.cfg.Warming != nil && p.cfg.Warming())
}

func (p *Pipeline) probe(w http.ResponseWriter, status string, warming bool) {
	switch {
	case p.Draining():
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case warming:
		w.Header().Set("Retry-After", "1")
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "warming"})
	default:
		body := map[string]string{"status": status}
		if p.cfg.Role != "" {
			body["role"] = p.cfg.Role
		}
		WriteJSON(w, http.StatusOK, body)
	}
}

// WriteJSON writes v as a JSON response with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
