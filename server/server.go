package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/obs"
	"bwtmatch/internal/seqio"
	"bwtmatch/server/internal/pipeline"
)

// Config tunes a Server. The zero value is usable; see the field
// comments for the defaults applied by New.
type Config struct {
	// Workers is the fan-out width per batch (default GOMAXPROCS via
	// bwtmatch.MapAll semantics; 0 means 4).
	Workers int
	// MaxBatch caps reads per request (default 4096).
	MaxBatch int
	// MaxK caps the per-read mismatch budget (default 64).
	MaxK int
	// MaxConcurrent caps batches executing simultaneously; further
	// requests queue until a slot frees (default 16).
	MaxConcurrent int
	// DefaultTimeout bounds a request that sets no timeout_ms
	// (default 30s).
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request body size (default 64 MiB).
	MaxBodyBytes int64
	// Budget is the registry's LRU byte budget (0 = unlimited).
	Budget int64
	// BuildWorkers parallelizes index construction for indexes built by
	// the server from raw sequence (RegisterGenome, kmserved
	// -load-genome); loading a pre-built index file is unaffected.
	// Default 1 (serial); see bwtmatch.WithBuildWorkers.
	BuildWorkers int
	// Logger receives structured request logs; nil discards them. Every
	// search batch logs one line carrying the request ID that is also
	// threaded through the batch's context (obs.WithRequestID).
	Logger *slog.Logger
	// EnableDebug mounts net/http/pprof under /debug/pprof/ and a
	// runtime stats endpoint at /debug/stats. Off by default: these
	// endpoints expose internals and cost memory to serve, so they are
	// opt-in (kmserved -debug).
	EnableDebug bool
	// SLO declares the tier's service-level objectives; the zero value
	// applies the obs defaults (100ms @ 99%, 99.9% availability). The
	// km_slo_* series on /metrics are computed against it.
	SLO obs.SLOConfig
	// WarmIndexes forces every shard of a registered sharded index to
	// materialize in the background at registration time (kmserved
	// -warm). While any warm-up is running /readyz reports 503, so a
	// fleet scheduler routes traffic around the worker until its shards
	// are resident instead of paying lazy-load latency on first search.
	WarmIndexes bool
}

// applyDefaults fills the worker-only fields; pipeline.New defaults the limits.
func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BuildWorkers <= 0 {
		c.BuildWorkers = 1
	}
}

// Server is the kmserved HTTP service: an index registry, a batched
// search endpoint, and metrics. Create with New, mount via Handler, and
// stop with Shutdown (drains in-flight searches, refuses new ones).
type Server struct {
	cfg    Config
	reg    *Registry
	met    *Metrics
	mux    *http.ServeMux
	pipe   *pipeline.Pipeline // request ID, decode, validate, drain, slots
	log    *slog.Logger
	start  time.Time
	flight *obs.FlightRecorder
	slo    *obs.SLO

	// warming counts in-flight background shard warm-ups; /readyz
	// reports 503 while it is nonzero. warmCtx bounds those warm-ups:
	// Shutdown cancels it so a stopping server never strands a
	// goroutine materializing shards nobody will search.
	warming    atomic.Int64
	warmCtx    context.Context
	warmCancel context.CancelFunc

	// testHookSearchStart, when non-nil, runs at the top of every search
	// batch while it counts as in-flight (used by the drain test).
	testHookSearchStart func()
}

// New builds a Server from cfg (zero value = defaults).
func New(cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(cfg.Budget),
		met:    NewMetrics(),
		mux:    http.NewServeMux(),
		log:    cfg.Logger,
		start:  time.Now(),
		flight: obs.NewFlightRecorder(64, 16, []string{"queue", "search"}),
	}
	s.slo = obs.NewSLO(cfg.SLO, s.met.LatencySource(), obs.DefaultLatencyBounds())
	s.warmCtx, s.warmCancel = context.WithCancel(context.Background())
	if s.log == nil {
		s.log = slog.New(slog.DiscardHandler)
	}
	s.pipe = pipeline.New(pipeline.Config{
		Limits: pipeline.Limits{MaxBatch: cfg.MaxBatch, MaxK: cfg.MaxK, MaxConcurrent: cfg.MaxConcurrent,
			DefaultTimeout: cfg.DefaultTimeout, MaxBodyBytes: cfg.MaxBodyBytes},
		IDPrefix: "req-",
		Warming:  func() bool { return s.warming.Load() > 0 },
		Rejected: &s.met.RejectedTotal,
		Flight:   s.flight,
		SLO:      s.slo,
		Log:      s.log,
	})
	s.reg.onEvict = func(name string) {
		s.met.IndexesEvicted.Add(1)
		s.log.Info("index evicted", "index", name)
	}
	s.mux.HandleFunc("POST /v1/search", s.handleSearch)
	s.mux.HandleFunc("GET /v1/indexes", s.handleListIndexes)
	s.mux.HandleFunc("POST /v1/indexes", s.handleRegisterIndex)
	s.mux.HandleFunc("DELETE /v1/indexes/{name}", s.handleRemoveIndex)
	s.mux.HandleFunc("GET /healthz", s.pipe.HandleHealth)
	s.mux.HandleFunc("GET /readyz", s.pipe.HandleReady)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.met.ServeJSON)
	// The flight recorder is always on (recording is allocation-free),
	// so its endpoint is too — unlike pprof it serves a bounded, cheap
	// snapshot and is exactly the thing wanted when debug wasn't enabled.
	s.mux.Handle("GET /debug/flightrecorder", s.flight)
	if cfg.EnableDebug {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		s.mux.HandleFunc("GET /debug/stats", s.handleDebugStats)
	}
	return s
}

// handleDebugStats reports point-in-time Go runtime statistics (the
// /debug/vars-style endpoint, but per-Server and read-only).
func (s *Server) handleDebugStats(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pipeline.WriteJSON(w, http.StatusOK, map[string]any{
		"uptime_seconds":  time.Since(s.start).Seconds(),
		"goroutines":      runtime.NumGoroutine(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"heap_alloc":      ms.HeapAlloc,
		"heap_sys":        ms.HeapSys,
		"sys":             ms.Sys,
		"num_gc":          ms.NumGC,
		"pause_total_ms":  float64(ms.PauseTotalNs) / 1e6,
		"next_gc":         ms.NextGC,
		"resident_bytes":  s.reg.Resident(),
		"indexes_loaded":  s.met.IndexesLoaded.Load(),
		"indexes_evicted": s.met.IndexesEvicted.Load(),
	})
}

// Handler returns the HTTP handler tree for mounting into an
// http.Server (or httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the index registry (for preloading at startup).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the counters (for tests and embedding).
func (s *Server) Metrics() *Metrics { return s.met }

// Register loads a saved index file and counts it in the metrics; it is
// the programmatic form of POST /v1/indexes.
func (s *Server) Register(name, path string) error {
	idx, err := s.reg.LoadFile(name, path)
	if err != nil {
		return err
	}
	s.met.IndexesLoaded.Add(1)
	s.log.Info("index registered", "index", name, "path", path)
	s.maybeWarm(name, idx)
	return nil
}

// Reload re-reads the container at path and swaps it in under name,
// refreshing the registry's cost accounting — the hot-reload path after
// `kmgen -append` grew a container on disk (kmserved wires it to
// SIGHUP). In-flight searches finish on the old index; new ones see the
// new shards.
func (s *Server) Reload(name, path string) error {
	idx, err := s.reg.ReloadFile(name, path)
	if err != nil {
		return err
	}
	s.met.IndexesLoaded.Add(1)
	shards := 0
	if sx, ok := idx.(*bwtmatch.ShardedIndex); ok {
		shards = sx.Shards()
	}
	s.log.Info("index reloaded", "index", name, "path", path, "bytes", idx.SizeBytes(), "shards", shards)
	s.maybeWarm(name, idx)
	return nil
}

// maybeWarm starts a background warm-up for a sharded index when
// Config.WarmIndexes is set: every lazily deferred shard materializes
// now rather than on first search, and /readyz reports 503 until all
// in-flight warm-ups finish. Failures are logged, not fatal — the
// affected shard will retry (and fail the same way) on first search.
func (s *Server) maybeWarm(name string, idx bwtmatch.Matcher) {
	if !s.cfg.WarmIndexes {
		return
	}
	sx, ok := idx.(*bwtmatch.ShardedIndex)
	if !ok {
		return
	}
	s.warming.Add(1)
	go func() {
		defer s.warming.Add(-1)
		start := time.Now()
		// Bounded by warmCtx: Shutdown cancels it, so the goroutine
		// stops between shards instead of outliving the server.
		if err := sx.LoadAllContext(s.warmCtx); err != nil {
			s.log.Warn("index warm-up failed", "index", name, "error", err)
			return
		}
		s.log.Info("index warmed", "index", name, "shards", sx.Shards(),
			"elapsed_ms", float64(time.Since(start))/float64(time.Millisecond))
	}()
}

// Ready reports whether the server is accepting and fully warmed (the
// /readyz condition).
func (s *Server) Ready() bool {
	return !s.pipe.Draining() && s.warming.Load() == 0
}

// RegisterGenome reads a FASTA/FASTQ genome file, builds an index over
// it (across Config.BuildWorkers goroutines) and registers it under
// name. Ambiguous bases are sanitized to 'a' as in kmsearch.
func (s *Server) RegisterGenome(name, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := seqio.NewReader(f).ReadAll()
	if err != nil {
		return fmt.Errorf("reading %q: %w", path, err)
	}
	refs := make([]bwtmatch.Reference, len(recs))
	sanitized := 0
	for i, rec := range recs {
		clean, n := bwtmatch.Sanitize(rec.Seq)
		sanitized += n
		refs[i] = bwtmatch.Reference{Name: rec.ID, Seq: clean}
	}
	idx, err := bwtmatch.NewRefs(refs, bwtmatch.WithBuildWorkers(s.cfg.BuildWorkers))
	if err != nil {
		return fmt.Errorf("building index for %q: %w", path, err)
	}
	if err := s.reg.Add(name, idx); err != nil {
		return err
	}
	s.met.IndexesLoaded.Add(1)
	s.log.Info("genome registered", "index", name, "path", path,
		"bases", idx.Len(), "sanitized", sanitized, "build_workers", s.cfg.BuildWorkers)
	return nil
}

// RegisterIndex registers an already-built index — monolithic or
// sharded — under name.
func (s *Server) RegisterIndex(name string, idx bwtmatch.Matcher) error {
	if err := s.reg.Add(name, idx); err != nil {
		return err
	}
	s.met.IndexesLoaded.Add(1)
	shards := 0
	if sx, ok := idx.(*bwtmatch.ShardedIndex); ok {
		shards = sx.Shards()
	}
	s.log.Info("index registered", "index", name, "bytes", idx.SizeBytes(), "shards", shards)
	s.maybeWarm(name, idx)
	return nil
}

// Shutdown stops accepting searches and waits for in-flight batches to
// drain, or until ctx expires. It is idempotent. Callers running an
// http.Server should call its Shutdown as well to close listeners.
func (s *Server) Shutdown(ctx context.Context) error {
	s.warmCancel() // stop background warm-ups; nobody will search them
	if err := s.pipe.Drain(ctx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	return nil
}

func (s *Server) handleListIndexes(w http.ResponseWriter, r *http.Request) {
	pipeline.WriteJSON(w, http.StatusOK, IndexListResponse{
		Indexes:       s.reg.List(),
		BudgetBytes:   s.reg.Budget(),
		ResidentBytes: s.reg.Resident(),
	})
}

func (s *Server) handleRegisterIndex(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if code, err := s.pipe.DecodeBody(w, r, &req); err != nil {
		s.pipe.Fail(w, "", code, "bad request body: %v", err)
		return
	}
	if req.Name == "" || req.Path == "" {
		s.pipe.Fail(w, "", http.StatusBadRequest, "name and path are required")
		return
	}
	if err := s.Register(req.Name, req.Path); err != nil {
		switch {
		case errors.Is(err, ErrExists):
			s.pipe.Fail(w, "", http.StatusConflict, "%v", err)
		case errors.Is(err, bwtmatch.ErrFormat):
			s.pipe.Fail(w, "", http.StatusUnprocessableEntity, "%v", err)
		default:
			s.pipe.Fail(w, "", http.StatusBadRequest, "loading %q: %v", req.Path, err)
		}
		return
	}
	for _, info := range s.reg.List() {
		if info.Name == req.Name {
			pipeline.WriteJSON(w, http.StatusCreated, info)
			return
		}
	}
	// Unreachable unless the index was concurrently evicted; report it.
	s.pipe.Fail(w, "", http.StatusInternalServerError, "index %q evicted immediately after load", req.Name)
}

func (s *Server) handleRemoveIndex(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.reg.Remove(name) {
		s.pipe.Fail(w, "", http.StatusNotFound, "index %q not registered", name)
		return
	}
	pipeline.WriteJSON(w, http.StatusOK, map[string]string{"removed": name})
}

// handleSearch is the worker's run step: look the index up, check a
// requested shard subset, and map the batch over it. Everything before
// and around it is the shared pipeline.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	b, ok := s.pipe.Accept(w, r)
	if !ok {
		return
	}
	idx, err := s.reg.Get(b.Index)
	if err != nil {
		s.pipe.Fail(w, b.RID, http.StatusNotFound, "%v", err)
		return
	}
	var sharded *bwtmatch.ShardedIndex
	if len(b.Shards) > 0 {
		sx, ok := idx.(*bwtmatch.ShardedIndex)
		if !ok {
			s.pipe.Fail(w, b.RID, http.StatusBadRequest,
				"index %q is monolithic; shards cannot be restricted", b.Index)
			return
		}
		prev := -1
		for _, sh := range b.Shards {
			if sh < 0 || sh >= sx.Shards() || sh <= prev {
				s.pipe.Fail(w, b.RID, http.StatusBadRequest,
					"bad shard set %v for index %q (%d shards; ordinals must be strictly increasing)",
					b.Shards, b.Index, sx.Shards())
				return
			}
			prev = sh
		}
		sharded = sx
	}

	// A sampled request (X-Km-Trace, set by kmload -trace or a sampling
	// coordinator) gets a span fragment recorded alongside the normal
	// bookkeeping; an untraced request's nil builder records nothing.
	var fb *obs.FragmentBuilder
	if TraceHeaderSet(r.Header.Get(HeaderTrace)) {
		fb = obs.NewFragmentBuilder("kmserved", b.RID)
	}
	ctx, done, ok := s.pipe.Admit(w, r, b)
	if !ok {
		return
	}
	defer done()
	if s.testHookSearchStart != nil {
		s.testHookSearchStart()
	}
	if fb != nil {
		ctx = obs.WithTraceRequest(ctx)
	}
	fb.Span(0, "queue", 0, fb.Now())
	queries, method, rid := b.Queries, b.Method, b.RID

	s.met.InFlight.Add(1)
	searchMark := fb.Now()
	start := time.Now()
	var results []bwtmatch.Result
	if sharded != nil {
		results = sharded.MapShardsContext(ctx, queries, method, s.cfg.Workers, b.Shards)
	} else {
		results = idx.MapAllContext(ctx, queries, method, s.cfg.Workers)
	}
	elapsed := time.Since(start)
	fb.Span(0, "search", searchMark, fb.Now(),
		obs.Arg{Key: "reads", Val: int64(len(queries))},
		obs.Arg{Key: "shards", Val: int64(len(b.Shards))})
	s.met.InFlight.Add(-1)

	resp := SearchResponse{
		Index:   b.Index,
		Method:  method.String(),
		Reads:   len(queries),
		Results: make([]ReadResult, len(results)),
	}
	var leaves, steps, memo int64
	for i, res := range results {
		rr := ReadResult{ID: queries[i].ID, Matches: []Match{}}
		if res.Err != nil {
			rr.Error = res.Err.Error()
			resp.Errors++
		} else {
			rr.Matches = make([]Match, len(res.Matches))
			for j, m := range res.Matches {
				rr.Matches[j] = Match{Pos: m.Pos, Mismatches: m.Mismatches}
			}
			resp.Matches += len(res.Matches)
		}
		leaves += int64(res.Stats.MTreeLeaves)
		steps += int64(res.Stats.StepCalls)
		memo += int64(res.Stats.MemoHits)
		resp.Results[i] = rr
	}
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	resp.RequestID = rid
	if fb != nil {
		fb.Mark(0, "stats",
			obs.Arg{Key: "mtree_leaves", Val: leaves},
			obs.Arg{Key: "step_calls", Val: steps},
			obs.Arg{Key: "memo_hits", Val: memo})
		resp.Trace = []obs.Fragment{fb.Fragment()}
	}
	s.met.ObserveBatch(int(method), elapsed, len(queries), resp.Matches, resp.Errors, leaves, steps, memo)
	s.slo.Observe(time.Since(b.Arrive), true)
	frec := obs.QueryRecord{
		Start:     b.Arrive,
		RID:       rid,
		Index:     b.Index,
		Method:    MethodName(method),
		ElapsedNS: int64(time.Since(b.Arrive)),
		Reads:     int32(len(queries)),
		Matches:   int32(resp.Matches),
		Errors:    int32(resp.Errors),
		Leaves:    leaves,
		Steps:     steps,
		MemoHits:  memo,
	}
	frec.PhaseNS[0] = int64(b.Queued)
	frec.PhaseNS[1] = int64(elapsed)
	s.flight.Record(&frec)
	s.log.Info("search",
		"rid", rid,
		"index", b.Index,
		"method", method.String(),
		"reads", len(queries),
		"matches", resp.Matches,
		"errors", resp.Errors,
		"mtree_leaves", leaves,
		"step_calls", steps,
		"memo_hits", memo,
		"elapsed_ms", resp.ElapsedMS)
	pipeline.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics serves the Prometheus exposition: the server-wide
// counters, then one series pair per shard of every registered sharded
// index, labelled by index name and shard ordinal. The per-shard series
// are rendered at scrape time from ShardedIndex.ShardInfo, so they need
// no bookkeeping in the hot path beyond the index's own atomics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.WritePrometheus(w)
	s.slo.WritePrometheus(w)
	relBases, relTenants := s.reg.relativeSnapshot()
	writeRelativeMetrics(w, relBases, relTenants)
	sharded := s.reg.shardSnapshot()
	if len(sharded) == 0 {
		return
	}
	// All samples of one metric stay contiguous, as the text format
	// requires: two passes, one per metric.
	fmt.Fprintf(w, "# HELP km_shard_searches_total searches fanned out to each shard\n# TYPE km_shard_searches_total counter\n")
	for _, e := range sharded {
		for i, si := range e.info {
			fmt.Fprintf(w, "km_shard_searches_total{index=%q,shard=\"%d\"} %d\n", e.name, i, si.Searches)
		}
	}
	fmt.Fprintf(w, "# HELP km_shard_search_ns_total cumulative nanoseconds searching each shard\n# TYPE km_shard_search_ns_total counter\n")
	for _, e := range sharded {
		for i, si := range e.info {
			fmt.Fprintf(w, "km_shard_search_ns_total{index=%q,shard=\"%d\"} %d\n", e.name, i, si.SearchNS)
		}
	}
}

// writeRelativeMetrics renders the multi-tenant series: per shared base
// the tenant count and resident bytes, per relative tenant its delta
// bytes and the base-hit vs delta-correction BWT-read split. Rendered
// at scrape time from the registry snapshot; the hot path pays only the
// delta's own atomics.
func writeRelativeMetrics(w io.Writer, bases []relBaseSeries, tenants []relTenantSeries) {
	if len(bases) == 0 && len(tenants) == 0 {
		return
	}
	fmt.Fprintf(w, "# HELP km_relative_tenants live relative tenants sharing each base\n# TYPE km_relative_tenants gauge\n")
	for _, b := range bases {
		fmt.Fprintf(w, "km_relative_tenants{base=%q} %d\n", b.base, b.tenants)
	}
	fmt.Fprintf(w, "# HELP km_relative_base_bytes resident bytes of each shared base\n# TYPE km_relative_base_bytes gauge\n")
	for _, b := range bases {
		fmt.Fprintf(w, "km_relative_base_bytes{base=%q} %d\n", b.base, b.bytes)
	}
	fmt.Fprintf(w, "# HELP km_relative_delta_bytes resident bytes of each tenant's delta\n# TYPE km_relative_delta_bytes gauge\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "km_relative_delta_bytes{index=%q,base=%q} %d\n", t.name, t.base, t.deltaBytes)
	}
	fmt.Fprintf(w, "# HELP km_relative_base_hits_total BWT reads answered from the shared base\n# TYPE km_relative_base_hits_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "km_relative_base_hits_total{index=%q} %d\n", t.name, t.baseHits)
	}
	fmt.Fprintf(w, "# HELP km_relative_delta_corrections_total BWT reads answered from the delta exception set\n# TYPE km_relative_delta_corrections_total counter\n")
	for _, t := range tenants {
		fmt.Fprintf(w, "km_relative_delta_corrections_total{index=%q} %d\n", t.name, t.corrections)
	}
}
