package cluster

import (
	"context"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"bwtmatch/internal/obs"
	"bwtmatch/server"
	"bwtmatch/server/client"
)

// subsetResult is the outcome of one subset's fan-out: the worker
// responses for every read (index-aligned with the batch), or failure
// after the retry chain is exhausted. On a traced batch frags carries
// the span fragments the answering worker returned, relabelled with
// the worker's URL so each worker gets its own process lane in the
// assembled timeline.
type subsetResult struct {
	sub     subset
	results []server.ReadResult // nil on failure
	frags   []obs.Fragment
	err     error
}

// fanout sends the batch to every subset of the route concurrently and
// collects the per-subset outcomes. Reads are the already-validated
// wire reads (patterns sanitized); k and method are the batch-level
// values. fb is non-nil on a traced batch: each subset records its
// spans on its own lane (tid i+2; tid 1 is the coordinator's main
// flow). The caller merges.
func (co *Coordinator) fanout(ctx context.Context, r route, reads []server.Read, k int, method string, timeoutMS int, fb *obs.FragmentBuilder) []subsetResult {
	subs := r.subsets()
	out := make([]subsetResult, len(subs))
	var wg sync.WaitGroup
	for i, sub := range subs {
		wg.Add(1)
		go func(i int, sub subset) {
			defer wg.Done()
			tid := i + 2
			s0 := fb.Now()
			results, frags, err := co.searchSubset(ctx, r.index, sub, reads, k, method, timeoutMS, fb, tid)
			ok := int64(1)
			if err != nil {
				ok = 0
			}
			fb.Span(tid, "subset", s0, fb.Now(),
				obs.Arg{Key: "shards", Val: int64(len(sub.shards))},
				obs.Arg{Key: "ok", Val: ok})
			out[i] = subsetResult{sub: sub, results: results, frags: frags, err: err}
		}(i, sub)
	}
	wg.Wait()
	return out
}

// searchSubset runs one subset's request against its replica chain:
// attempt j goes to chain[j mod len(chain)], bounded by WorkerTimeout,
// with exponential backoff + jitter between attempts. Client errors
// (4xx) abort immediately except 404, which marks the route stale —
// the cached route is dropped so the next batch re-resolves — and
// still fails over, since a replica may hold the index the primary
// evicted.
func (co *Coordinator) searchSubset(ctx context.Context, index string, sub subset, reads []server.Read, k int, method string, timeoutMS int, fb *obs.FragmentBuilder, tid int) ([]server.ReadResult, []obs.Fragment, error) {
	req := server.SearchRequest{
		Index:     index,
		K:         k,
		Method:    method,
		Reads:     reads,
		Shards:    sub.shards,
		TimeoutMS: timeoutMS,
	}
	attempts := co.cfg.SubsetRetries + 1
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			co.met.RetriesTotal.Add(1)
			fb.Mark(tid, "retry", obs.Arg{Key: "attempt", Val: int64(attempt)})
			d := co.cfg.RetryBackoff << (attempt - 1)
			select {
			case <-time.After(d + rand.N(d/2+1)):
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}
		wk := sub.chain[attempt%len(sub.chain)]
		co.met.FanoutRPCs.Add(1)
		r0 := fb.Now()
		resp, elapsed, err := co.searchWorker(ctx, wk, req)
		fb.Span(tid, "rpc", r0, fb.Now(),
			obs.Arg{Key: "attempt", Val: int64(attempt)},
			obs.Arg{Key: "code", Val: int64(client.StatusCode(err))})
		if err == nil {
			co.met.WorkerLatency.Observe(elapsed)
			// The worker only returns fragments when this batch carried
			// X-Km-Trace (which the client sets from the traced context).
			// Relabel them with the worker's URL: every worker reports
			// itself as "kmserved", and the timeline needs one process
			// lane per fleet member.
			frags := resp.Trace
			for i := range frags {
				frags[i].Process = wk.url
			}
			return resp.Results, frags, nil
		}
		lastErr = err
		co.met.WorkerErrors.Add(1)
		code := client.StatusCode(err)
		co.log.Warn("worker attempt failed",
			"index", index, "worker", wk.url, "shards", sub.shards,
			"attempt", attempt, "code", code, "error", err)
		if code == http.StatusNotFound {
			co.routes.drop(index)
		} else if code >= 400 && code < 500 {
			// The request itself is bad (or too large): every replica
			// would reject it the same way.
			return nil, nil, err
		}
		if ctx.Err() != nil {
			return nil, nil, lastErr
		}
	}
	return nil, nil, lastErr
}

// searchWorker performs one bounded RPC attempt.
func (co *Coordinator) searchWorker(ctx context.Context, wk *worker, req server.SearchRequest) (*server.SearchResponse, time.Duration, error) {
	actx, cancel := context.WithTimeout(ctx, co.cfg.WorkerTimeout)
	defer cancel()
	start := time.Now()
	resp, err := wk.c.Search(actx, req)
	return resp, time.Since(start), err
}

// merge assembles the final per-read results from the subset outcomes:
// for each read, the matches from every successful subset gathered and
// sorted by position (subsets own disjoint position ranges, so the sort
// just interleaves already-sorted runs; no de-duplication is needed).
// Failed subsets make the batch partial and their shards are reported.
// A per-read worker error (bad pattern) is identical across subsets;
// the first one seen wins.
func merge(n int, outs []subsetResult) (results []server.ReadResult, failed []int, partial bool) {
	results = make([]server.ReadResult, n)
	for _, o := range outs {
		if o.err != nil {
			partial = true
			failed = append(failed, o.sub.shards...)
			continue
		}
		for i := range results {
			if i >= len(o.results) {
				break
			}
			rr := o.results[i]
			if rr.Error != "" {
				if results[i].Error == "" {
					results[i].Error = rr.Error
				}
				continue
			}
			results[i].Matches = append(results[i].Matches, rr.Matches...)
		}
	}
	for i := range results {
		if results[i].Error != "" {
			results[i].Matches = nil
			continue
		}
		m := results[i].Matches
		sort.Slice(m, func(a, b int) bool { return m[a].Pos < m[b].Pos })
		if m == nil {
			results[i].Matches = []server.Match{}
		}
	}
	sort.Ints(failed)
	return results, failed, partial
}
