// Package cluster is the coordinator tier of a distributed kmserved
// fleet: a front-end HTTP service that owns shard→worker routing and
// fans each search batch out over plain kmserved workers.
//
// Topology. Every worker is an ordinary kmserved (bwtmatch/server)
// holding the same multi-shard index container; the sharded on-disk
// format loads shards lazily, so a worker asked only about shards
// {0, 3, 6} materializes only those and its resident set is the
// routed subset. The coordinator partitions an index's shards by
// primary owner (shard s → workers[s mod n]), sends one restricted
// SearchRequest{Shards: subset} per owner, and concatenates the
// owned, position-ordered results — the ownership-by-start-position
// rule from internal/shard makes the merge exactly-once and globally
// ordered, byte-identical to a single-process search.
//
// Resilience. Each subset request is bounded by a per-attempt worker
// timeout and retried with exponential backoff + jitter across the
// subset's replica chain (workers[(s+j) mod n]); a subset whose every
// replica fails degrades the batch to a Partial response naming the
// FailedShards instead of failing the whole batch.
//
// Efficiency. Identical in-flight queries (index, method, k, pattern)
// coalesce onto one fan-out (singleflight), completed full results
// populate a bounded hot-results LRU served without any worker RPC,
// and an admission-control gate sheds load with 503 + Retry-After once
// the queue behind the concurrency limit is full. Everything is
// observable via /metrics (km_cluster_*, km_cache_* series).
//
// Run with kmserved -coordinator -workers ... (see cmd/kmserved), load
// it with cmd/kmload.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"

	"bwtmatch/internal/obs"
	"bwtmatch/server/client"
	"bwtmatch/server/internal/pipeline"
)

// Config tunes a Coordinator. Workers is required; everything else has
// a usable zero value (see field comments for defaults applied by New).
type Config struct {
	// Workers lists the base URLs of the fleet's kmserved workers, e.g.
	// "http://10.0.0.1:7070". Order matters: it defines shard ownership
	// (shard s is primarily owned by Workers[s mod len(Workers)]) and
	// replica-chain rotation, so every coordinator replica must be
	// configured with the same order.
	Workers []string
	// Routes optionally pins the index→worker routing statically
	// (kmserved -routes). Nil enables discovery: the coordinator asks
	// the workers' /v1/indexes listings and routes every index all
	// reachable workers agree on.
	Routes *RouteTable
	// WorkerTimeout bounds each worker RPC attempt (default 10s).
	WorkerTimeout time.Duration
	// SubsetRetries is the number of extra attempts per shard subset
	// after the first fails, each against the next replica in the chain
	// (default 2; negative disables retries).
	SubsetRetries int
	// RetryBackoff is the base delay before a subset retry, doubled per
	// attempt with jitter (default 50ms).
	RetryBackoff time.Duration
	// MaxConcurrent caps batches executing simultaneously (default 16).
	MaxConcurrent int
	// QueueDepth caps batches waiting behind the MaxConcurrent gate;
	// beyond it requests are shed with 503 + Retry-After (default 64).
	QueueDepth int
	// RetryAfter is the hint sent with shed responses (default 1s,
	// rounded up to whole seconds on the wire).
	RetryAfter time.Duration
	// DefaultTimeout bounds a batch that sets no timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxBatch caps reads per request (default 4096).
	MaxBatch int
	// MaxK caps the per-read mismatch budget (default 64).
	MaxK int
	// MaxBodyBytes caps request body size (default 64 MiB).
	MaxBodyBytes int64
	// CacheEntries bounds the hot-results cache entry count; negative
	// disables the cache entirely (default 4096).
	CacheEntries int
	// CacheBytes bounds the hot-results cache resident bytes
	// (default 64 MiB).
	CacheBytes int64
	// TraceSample is the fraction of batches traced end to end (0..1;
	// default 0 = off). A sampled batch records coordinator spans, sets
	// X-Km-Trace on every worker RPC so the workers return their span
	// fragments, and the assembled cross-process timeline is kept for
	// /debug/trace. A client can also force a trace per request with the
	// X-Km-Trace header regardless of the sample rate.
	TraceSample float64
	// SLO declares the coordinator's service-level objectives; the zero
	// value applies the obs defaults. km_slo_* series on /metrics.
	SLO obs.SLOConfig
	// Logger receives structured logs; nil discards them.
	Logger *slog.Logger
}

// applyDefaults fills the coordinator-only fields; pipeline.New defaults the limits.
func (c *Config) applyDefaults() {
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 10 * time.Second
	}
	if c.SubsetRetries < 0 {
		c.SubsetRetries = 0
	} else if c.SubsetRetries == 0 {
		c.SubsetRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 4096
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
}

// worker is one fleet member: its base URL and the client handle the
// fan-out uses. The client carries no internal retries — retry policy
// (which replica, how long to back off) belongs to the coordinator's
// subset loop, which needs to switch workers between attempts.
type worker struct {
	url string
	c   *client.Client
}

// Coordinator is the cluster front-end. Create with New, mount via
// Handler, stop with Shutdown.
type Coordinator struct {
	cfg    Config
	mux    *http.ServeMux
	pipe   *pipeline.Pipeline // request ID, decode, validate, drain, slots
	met    *Metrics
	cache  *resultCache
	flight *flightGroup

	workers     []*worker
	workerByURL map[string]*worker
	static      *RouteTable
	routes      routeCache

	pressure atomic.Int64 // batches admitted: executing + queued
	log      *slog.Logger

	// frec is the always-on flight recorder: every batch (including shed
	// ones) leaves a fixed-size record behind, served on
	// /debug/flightrecorder. slo derives km_slo_* series from the batch
	// latency histogram. lastTrace holds the most recent sampled
	// cross-process timeline ([]obs.Fragment) for /debug/trace.
	frec      *obs.FlightRecorder
	slo       *obs.SLO
	lastTrace atomic.Value
}

// New builds a Coordinator from cfg. It fails fast on an empty worker
// set and on a static route table naming a worker outside it; it does
// not contact the workers — discovery and static-route resolution
// happen lazily per index on first search.
func New(cfg Config) (*Coordinator, error) {
	cfg.applyDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	co := &Coordinator{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		met:         NewMetrics(),
		flight:      newFlightGroup(),
		workerByURL: make(map[string]*worker, len(cfg.Workers)),
		static:      cfg.Routes,
		log:         cfg.Logger,
	}
	if co.log == nil {
		co.log = slog.New(slog.DiscardHandler)
	}
	co.frec = obs.NewFlightRecorder(64, 16, coordPhaseNames[:])
	co.slo = obs.NewSLO(cfg.SLO, co.met.BatchLatency, obs.DefaultLatencyBounds())
	co.pipe = pipeline.New(pipeline.Config{
		Limits: pipeline.Limits{MaxBatch: cfg.MaxBatch, MaxK: cfg.MaxK, MaxConcurrent: cfg.MaxConcurrent,
			DefaultTimeout: cfg.DefaultTimeout, MaxBodyBytes: cfg.MaxBodyBytes},
		IDPrefix: "creq-",
		Role:     "coordinator",
		Rejected: &co.met.RejectedTotal,
		Flight:   co.frec,
		SLO:      co.slo,
		Log:      co.log,
	})
	if cfg.CacheEntries > 0 {
		co.cache = newResultCache(cfg.CacheEntries, cfg.CacheBytes)
	}
	for _, u := range cfg.Workers {
		if u == "" {
			return nil, errors.New("cluster: empty worker URL")
		}
		if _, dup := co.workerByURL[u]; dup {
			return nil, fmt.Errorf("cluster: duplicate worker URL %q", u)
		}
		// Timeout 0: the per-attempt context (WorkerTimeout) bounds each
		// RPC; a second transport-level clock would just race it.
		wk := &worker{url: u, c: client.New(u, client.WithTimeout(0))}
		co.workers = append(co.workers, wk)
		co.workerByURL[u] = wk
	}
	if co.static != nil {
		for name, e := range co.static.Indexes {
			for _, u := range e.Workers {
				if _, ok := co.workerByURL[u]; !ok {
					return nil, fmt.Errorf("%w: index %q routes to worker %q not in -workers", ErrRoutes, name, u)
				}
			}
		}
	}
	co.mux.HandleFunc("POST /v1/search", co.handleSearch)
	co.mux.HandleFunc("GET /v1/indexes", co.handleListIndexes)
	co.mux.HandleFunc("GET /healthz", co.pipe.HandleHealth)
	co.mux.HandleFunc("GET /readyz", co.pipe.HandleReady)
	co.mux.HandleFunc("GET /metrics", co.handleMetrics)
	co.mux.HandleFunc("GET /metrics.json", co.handleMetricsJSON)
	// Always mounted, like the worker's: recording costs nothing per
	// batch and the recorder is wanted exactly when nobody thought to
	// enable debugging beforehand.
	co.mux.Handle("GET /debug/flightrecorder", co.frec)
	co.mux.HandleFunc("GET /debug/trace", co.handleDebugTrace)
	return co, nil
}

// Coordinator flight-recorder phase slots (QueryRecord.PhaseNS order).
const (
	phasePlan     = iota // cache lookup + coalescing per read
	phaseRoute           // index→worker route resolution
	phaseFanout          // worker RPCs in flight (incl. retries)
	phaseMerge           // subset result merge + cache fill
	phaseAssemble        // follower waits + response assembly
	numCoordPhases
)

var coordPhaseNames = [numCoordPhases]string{
	"plan", "route", "fanout", "merge", "assemble",
}

// Handler returns the HTTP handler tree for mounting into an
// http.Server (or httptest).
func (co *Coordinator) Handler() http.Handler { return co.mux }

// Metrics exposes the counters (for tests and embedding).
func (co *Coordinator) Metrics() *Metrics { return co.met }

// Shutdown stops accepting searches and waits for in-flight batches to
// drain, or until ctx expires. It is idempotent.
func (co *Coordinator) Shutdown(ctx context.Context) error {
	if err := co.pipe.Drain(ctx); err != nil {
		return fmt.Errorf("cluster: shutdown: %w", err)
	}
	return nil
}
