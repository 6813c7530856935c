package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"strconv"
	"time"

	"bwtmatch/internal/obs"
	"bwtmatch/server"
	"bwtmatch/server/internal/pipeline"
)

// readPlan records how one read of a batch will be answered: straight
// from the hot-results cache, as the leader of a coalesced flight (this
// batch runs the fan-out), or as a follower of a flight led elsewhere.
type readPlan struct {
	id     string
	cached []server.Match // cache hit; nil otherwise
	hit    bool
	call   *call
	leader bool
	key    string
	lidx   int // index into the leader sub-batch when leader
}

// handleListIndexes reports the coordinator's routing view as a
// RouteTable document. With static routes that is the configured table;
// with discovery it runs a discovery round first, so the listing
// doubles as a fleet probe.
func (co *Coordinator) handleListIndexes(w http.ResponseWriter, r *http.Request) {
	if co.static != nil {
		pipeline.WriteJSON(w, http.StatusOK, co.static)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), co.cfg.WorkerTimeout)
	defer cancel()
	// Errors mean only that the probed name is unknown; the round still
	// populated the cache with every index the fleet agrees on.
	co.discover(ctx, "")
	co.routes.mu.RLock()
	rt := RouteTable{Indexes: make(map[string]RouteEntry, len(co.routes.routes))}
	for name, rte := range co.routes.routes {
		urls := make([]string, len(rte.owners))
		for i, wk := range rte.owners {
			urls[i] = wk.url
		}
		rt.Indexes[name] = RouteEntry{Shards: rte.shards, Workers: urls}
	}
	co.routes.mu.RUnlock()
	pipeline.WriteJSON(w, http.StatusOK, rt)
}

func (co *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, bytes := co.cache.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	co.met.WritePrometheus(w, entries, bytes)
	co.slo.WritePrometheus(w)
}

func (co *Coordinator) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	entries, bytes := co.cache.stats()
	pipeline.WriteJSON(w, http.StatusOK, co.met.Snapshot(entries, bytes))
}

// handleSearch is the coordinator's run step: plan every read against
// the cache and the in-flight flights, route, fan out, merge and
// assemble. Accepting, admitting and refusing the batch is the shared
// pipeline's work.
func (co *Coordinator) handleSearch(w http.ResponseWriter, r *http.Request) {
	b, ok := co.pipe.Accept(w, r)
	if !ok {
		return
	}
	rid := b.RID
	if len(b.Shards) > 0 {
		// Shard routing is the coordinator's job; accepting a client's
		// subset would break the exactly-once merge.
		co.pipe.Fail(w, rid, http.StatusBadRequest, "shards cannot be set on a coordinator request")
		return
	}
	// The canonical wire token ("a"), not the display name: it keys the
	// cache and goes back out to the workers.
	methodName := server.MethodName(b.Method)

	// Admission control: pressure counts batches admitted past this
	// point — executing plus queued for a slot. Beyond the queue cap the
	// batch is shed immediately with a backoff hint rather than left to
	// time out in line.
	if co.pressure.Add(1) > int64(co.pipe.Limits().MaxConcurrent+co.cfg.QueueDepth) {
		co.pressure.Add(-1)
		co.met.ShedTotal.Add(1)
		secs := max(1, int(co.cfg.RetryAfter.Round(time.Second)/time.Second))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		co.log.Warn("request shed", "rid", rid, "index", b.Index, "reads", len(b.Queries))
		pipeline.WriteJSON(w, http.StatusServiceUnavailable,
			server.ErrorResponse{Error: "coordinator overloaded; retry later", RequestID: rid})
		co.pipe.RecordShed(b)
		return
	}
	defer co.pressure.Add(-1)

	ctx, done, ok := co.pipe.Admit(w, r, b)
	if !ok {
		return
	}
	defer done()
	// A traced batch carries the flag on the context so the client layer
	// sets X-Km-Trace on every worker RPC and the workers return their
	// span fragments.
	var fb *obs.FragmentBuilder
	if server.TraceHeaderSet(r.Header.Get(server.HeaderTrace)) || co.sampleTrace() {
		fb = obs.NewFragmentBuilder("coordinator", rid)
		ctx = obs.WithTraceRequest(ctx)
	}

	co.met.InFlight.Add(1)
	defer co.met.InFlight.Add(-1)
	start := time.Now()

	// Per-phase wall clocks for the flight recorder: the phases of one
	// batch are strictly sequential in this handler, so a single rolling
	// mark splits the elapsed time exactly.
	var phase [numCoordPhases]int64
	phaseMark := start
	lap := func(p int) {
		now := time.Now()
		phase[p] += int64(now.Sub(phaseMark))
		phaseMark = now
	}
	var cacheHits, coalesced int

	// Plan every read: cache → singleflight, keyed on the sanitized
	// pattern the workers will actually search. The first occurrence of
	// a key becomes the flight's leader; duplicates in the same batch
	// and concurrent batches become followers.
	plans := make([]readPlan, len(b.Queries))
	var leaderReads []server.Read
	var leaderPlans []*readPlan
	planO := fb.Now()
	for i, q := range b.Queries {
		key := cacheKey(b.Index, methodName, q.K, q.Pattern)
		p := &plans[i]
		p.id = q.ID
		p.key = key
		if m, ok := co.cache.get(key); ok {
			co.met.CacheHits.Add(1)
			cacheHits++
			p.cached, p.hit = m, true
			continue
		}
		co.met.CacheMisses.Add(1)
		c, leader := co.flight.join(key)
		p.call, p.leader = c, leader
		if leader {
			p.lidx = len(leaderReads)
			leaderReads = append(leaderReads, server.Read{Seq: string(q.Pattern), K: &b.Queries[i].K})
			leaderPlans = append(leaderPlans, p)
		} else {
			co.met.InflightDedup.Add(1)
			coalesced++
		}
	}
	lap(phasePlan)
	fb.Span(1, "plan", planO, fb.Now(),
		obs.Arg{Key: "reads", Val: int64(len(b.Queries))},
		obs.Arg{Key: "leaders", Val: int64(len(leaderReads))},
		obs.Arg{Key: "cache_hits", Val: int64(cacheHits)},
		obs.Arg{Key: "coalesced", Val: int64(coalesced)})

	// The leaders' sub-batch fans out once for all of them.
	var failedShards []int
	var workerFrags []obs.Fragment
	partial := false
	if len(leaderReads) > 0 {
		routeO := fb.Now()
		rt, err := co.resolve(ctx, b.Index)
		lap(phaseRoute)
		if err != nil {
			// Complete every leader so followers waiting on them in
			// other batches wake instead of hanging.
			for _, p := range leaderPlans {
				co.flight.complete(p.key, p.call, nil, err.Error(), false, nil)
			}
			code := http.StatusBadGateway
			if errors.Is(err, ErrNoRoute) {
				code = http.StatusNotFound
			}
			co.pipe.Fail(w, rid, code, "%v", err)
			return
		}
		fb.Span(1, "route", routeO, fb.Now())
		fanO := fb.Now()
		outs := co.fanout(ctx, rt, leaderReads, b.K, methodName, b.TimeoutMS, fb)
		lap(phaseFanout)
		fb.Span(1, "fanout", fanO, fb.Now(),
			obs.Arg{Key: "subsets", Val: int64(len(outs))},
			obs.Arg{Key: "reads", Val: int64(len(leaderReads))})
		mergeO := fb.Now()
		results, failed, part := merge(len(leaderReads), outs)
		// A copy: failed is shared with this batch's followers, and the
		// assembly below appends to and sorts this batch's list.
		failedShards, partial = slices.Clone(failed), part
		for _, o := range outs {
			workerFrags = append(workerFrags, o.frags...)
		}
		for _, p := range leaderPlans {
			rr := results[p.lidx]
			co.flight.complete(p.key, p.call, rr.Matches, rr.Error, part, failed)
			if !part && rr.Error == "" {
				co.cache.put(p.key, rr.Matches)
			}
		}
		lap(phaseMerge)
		fb.Span(1, "merge", mergeO, fb.Now())
	}

	// Assemble: cache hits and leaders are already settled; followers
	// wait for their flight's leader (possibly in another batch).
	asmO := fb.Now()
	resp := server.SearchResponse{
		Index:  b.Index,
		Method: b.Method.String(), // display name, like the worker tier

		Reads:   len(b.Queries),
		Results: make([]server.ReadResult, len(b.Queries)),
	}
	for i := range plans {
		p := &plans[i]
		rr := server.ReadResult{ID: p.id, Matches: []server.Match{}}
		switch {
		case p.hit:
			rr.Matches = p.cached
		case p.leader:
			rr.Matches, rr.Error = p.call.matches, p.call.errMsg
		default:
			select {
			case <-p.call.done:
				rr.Matches, rr.Error = p.call.matches, p.call.errMsg
				if p.call.partial {
					partial = true
					failedShards = append(failedShards, p.call.failed...)
				}
			case <-ctx.Done():
				rr.Error = fmt.Sprintf("waiting for coalesced result: %v", ctx.Err())
			}
		}
		if rr.Error != "" {
			rr.Matches = []server.Match{}
			resp.Errors++
		} else if rr.Matches == nil {
			rr.Matches = []server.Match{}
		}
		resp.Matches += len(rr.Matches)
		resp.Results[i] = rr
	}
	if partial {
		resp.Partial = true
		slices.Sort(failedShards)
		resp.FailedShards = slices.Compact(failedShards)
		co.met.PartialTotal.Add(1)
	}
	lap(phaseAssemble)
	elapsed := time.Since(start)
	resp.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	resp.RequestID = rid
	fb.Span(1, "assemble", asmO, fb.Now())
	if fb != nil {
		// Coordinator fragment first, then one fragment per answering
		// worker: WriteChromeTraceMulti turns each into its own process
		// lane, so the stored slice is the whole cross-process timeline.
		frags := append([]obs.Fragment{fb.Fragment()}, workerFrags...)
		resp.Trace = frags
		co.lastTrace.Store(frags)
		co.met.TracesTotal.Add(1)
	}
	co.met.BatchesTotal.Add(1)
	co.met.ReadsTotal.Add(int64(len(b.Queries)))
	co.met.MatchesTotal.Add(int64(resp.Matches))
	co.met.ErrorsTotal.Add(int64(resp.Errors))
	co.met.BatchLatency.Observe(elapsed)
	co.slo.Observe(elapsed, true)
	rec := obs.QueryRecord{
		Start:     b.Arrive,
		RID:       rid,
		Index:     b.Index,
		Method:    methodName,
		ElapsedNS: int64(elapsed),
		Reads:     int32(len(b.Queries)),
		Matches:   int32(resp.Matches),
		Errors:    int32(resp.Errors),
		CacheHits: int32(cacheHits),
		Coalesced: int32(coalesced),
		Partial:   resp.Partial,
	}
	copy(rec.PhaseNS[:], phase[:])
	for _, s := range resp.FailedShards {
		rec.FailedShards |= obs.ShardBit(s)
	}
	co.frec.Record(&rec)
	if resp.Partial {
		// Warn level with the rid: a partial batch is the cluster
		// degrading service, and the rid ties this line to the client
		// error and the flight-recorder record.
		co.log.Warn("partial batch",
			"rid", rid,
			"index", b.Index,
			"failed_shards", fmt.Sprint(resp.FailedShards))
	}
	co.log.Info("cluster search",
		"rid", rid,
		"index", b.Index,
		"method", methodName,
		"reads", len(b.Queries),
		"fanned_out", len(leaderReads),
		"matches", resp.Matches,
		"errors", resp.Errors,
		"partial", resp.Partial,
		"elapsed_ms", resp.ElapsedMS)
	pipeline.WriteJSON(w, http.StatusOK, resp)
}

// sampleTrace decides whether an untagged batch gets traced anyway,
// at the configured TraceSample rate.
func (co *Coordinator) sampleTrace() bool {
	s := co.cfg.TraceSample
	return s > 0 && (s >= 1 || rand.Float64() < s)
}

// handleDebugTrace serves the most recent sampled batch's assembled
// cross-process timeline in Chrome trace-event format (load it in
// chrome://tracing or Perfetto). 404 until a batch has been sampled.
func (co *Coordinator) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	frags, _ := co.lastTrace.Load().([]obs.Fragment)
	if len(frags) == 0 {
		pipeline.WriteJSON(w, http.StatusNotFound,
			server.ErrorResponse{Error: "no sampled trace captured yet"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTraceMulti(w, frags)
}
