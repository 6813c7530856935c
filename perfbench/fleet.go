package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/server"
	"bwtmatch/server/client"
	"bwtmatch/server/cluster"
)

const (
	fleetK       = 2
	fleetBatch   = 32
	fleetShards  = 2
	fleetHotPool = 256
	// fleetHotShare of each batch's reads come from the hot pool; the
	// rest are fresh reads that no cache has seen.
	fleetHotShare = 0.25
	// fleetUnique is the fresh-read pool, more than a run sends.
	fleetUnique = 1 << 16
	// fleetCheckedUnique fresh reads have a reference answer from the
	// monolithic index; every hot read has one.
	fleetCheckedUnique = 1024
	fleetIndexName     = "g"
	// handlerSamples batch pairs estimate the worker's per-read HTTP
	// cost (traced runs).
	handlerSamples = 16
	// fleetSetupRepeats is larger than setupRepeats: one fleet start is
	// short (~0.5 s) and spread 0.45-0.8 s within a run.
	fleetSetupRepeats = 5
)

// fleetInputs regenerates serve-fleet's genome and read pools from the
// seed; the input-preparation process and the measuring process call
// it alike.
func fleetInputs(seed int64) (g []byte, hot, unique []simRead, err error) {
	if g, err = genome(mapGenomeBases); err != nil {
		return nil, nil, nil, err
	}
	if hot, err = simulate(g, fleetHotPool, derive(seed, 5)); err != nil {
		return nil, nil, nil, err
	}
	if unique, err = simulate(g, fleetUnique, derive(seed, 6)); err != nil {
		return nil, nil, nil, err
	}
	return g, hot, unique, nil
}

// fleetExpected holds the monolithic index's answers for the checked
// reads, keyed "h<i>" (hot pool) and "u<i>" (fresh pool).
type fleetExpected map[string][]bwtmatch.Match

// prepareFleet is the input preparation of serve-fleet, run in its own
// process so that its builds do not count toward the measured
// process's peak memory: it writes the 2-shard container to path and
// the monolithic index's answers for the checked reads to path.json.
func prepareFleet(path string, seed int64) error {
	g, hot, unique, err := fleetInputs(seed)
	if err != nil {
		return err
	}
	text := alphabet.Decode(g)
	mono, err := bwtmatch.New(text)
	if err != nil {
		return fmt.Errorf("monolithic build: %w", err)
	}
	want := fleetExpected{}
	add := func(key string, rd simRead) error {
		ms, _, err := mono.SearchMethod(rd.seq, fleetK, bwtmatch.AlgorithmA)
		want[key] = ms
		return err
	}
	for i, rd := range hot {
		if err := add("h"+strconv.Itoa(i), rd); err != nil {
			return err
		}
	}
	for _, i := range sample(len(unique), fleetCheckedUnique, derive(seed, 7)) {
		if err := add("u"+strconv.Itoa(i), unique[i]); err != nil {
			return err
		}
	}
	mono = nil
	sx, err := bwtmatch.NewSharded(text, bwtmatch.WithShards(fleetShards), bwtmatch.WithMaxPatternLen(readLen))
	if err != nil {
		return fmt.Errorf("sharded build: %w", err)
	}
	if err := sx.SaveFile(path); err != nil {
		return err
	}
	data, err := json.Marshal(want)
	if err != nil {
		return err
	}
	return os.WriteFile(path+".json", data, 0o644)
}

// fleet is one in-process serving fleet: two workers sharing one loaded
// container and a coordinator, each on its own loopback listener.
type fleet struct {
	idx     *bwtmatch.ShardedIndex
	workers []*server.Server
	coord   *cluster.Coordinator
	https   []*http.Server
	urls    []string // workers first, coordinator last
	serving sync.WaitGroup
}

// startFleet loads the container and starts the fleet, returning once
// every process answers /readyz and the coordinator has discovered the
// index. It also returns the load time alone.
func startFleet(path string) (*fleet, time.Duration, error) {
	f := &fleet{}
	start := time.Now()
	m, err := bwtmatch.LoadAnyFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("loading %s: %w", path, err)
	}
	sx, ok := m.(*bwtmatch.ShardedIndex)
	if !ok {
		return nil, 0, fmt.Errorf("%s is not a sharded container", path)
	}
	f.idx = sx
	if err := sx.LoadAll(); err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("loading shards of %s: %w", path, err)
	}
	load := time.Since(start)
	var workerURLs []string
	for i := 0; i < 2; i++ {
		w := server.New(server.Config{Workers: clients})
		if err := w.RegisterIndex(fleetIndexName, sx); err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("registering the index with worker %d: %w", i, err)
		}
		f.workers = append(f.workers, w)
		u, err := f.serve(w.Handler())
		if err != nil {
			f.stop()
			return nil, 0, fmt.Errorf("worker %d listener: %w", i, err)
		}
		workerURLs = append(workerURLs, u)
	}
	co, err := cluster.New(cluster.Config{Workers: workerURLs})
	if err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("coordinator: %w", err)
	}
	f.coord = co
	if _, err := f.serve(co.Handler()); err != nil {
		f.stop()
		return nil, 0, fmt.Errorf("coordinator listener: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, u := range f.urls {
		if err := awaitReady(ctx, u); err != nil {
			f.stop()
			return nil, 0, err
		}
	}
	// The coordinator's index listing runs a discovery round, after
	// which it can route the first search without one.
	if code, err := get(ctx, f.coordURL()+"/v1/indexes"); err != nil || code != http.StatusOK {
		f.stop()
		return nil, 0, fmt.Errorf("coordinator discovery: status %d: %v", code, err)
	}
	return f, load, nil
}

// get issues a GET and returns its status code, discarding the body.
func get(ctx context.Context, url string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

func (f *fleet) coordURL() string { return f.urls[len(f.urls)-1] }

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	f.https = append(f.https, hs)
	f.serving.Add(1)
	go func() {
		defer f.serving.Done()
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	u := "http://" + ln.Addr().String()
	f.urls = append(f.urls, u)
	return u, nil
}

// stop shuts the listeners and services down and waits for every
// serving goroutine to return.
func (f *fleet) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := len(f.https) - 1; i >= 0; i-- {
		_ = f.https[i].Shutdown(ctx) // a missed deadline leaves nothing to undo in a benchmark
	}
	f.serving.Wait()
	if f.coord != nil {
		_ = f.coord.Shutdown(ctx) // the listeners are already closed
	}
	for _, w := range f.workers {
		_ = w.Shutdown(ctx)
	}
	if f.idx != nil {
		_ = f.idx.Close() // read-only file
	}
}

func awaitReady(ctx context.Context, base string) error {
	for {
		if code, err := get(ctx, base+"/readyz"); err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never became ready: %w", base, ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// runFleet is serve-fleet: two closed-loop clients send 32-read batches
// at k=2 through the coordinator, which fans each out to the two
// workers by shard and merges.
func runFleet(r *run) error {
	container := filepath.Join(r.workDir, fmt.Sprintf("fleet-%d-%d.km", r.seed, os.Getpid()))
	defer os.Remove(container)
	defer os.Remove(container + ".json")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	prep := exec.Command(exe, "--prepare-fleet", container, "--seed", strconv.FormatInt(r.seed, 10))
	prep.Stdout, prep.Stderr = os.Stderr, os.Stderr
	if err := prep.Run(); err != nil {
		return fmt.Errorf("preparing fleet inputs: %w", err)
	}
	data, err := os.ReadFile(container + ".json")
	if err != nil {
		return err
	}
	var want fleetExpected
	if err := json.Unmarshal(data, &want); err != nil {
		return err
	}
	g, hot, unique, err := fleetInputs(r.seed)
	if err != nil {
		return err
	}
	text := alphabet.Decode(g)
	g = nil

	var f *fleet
	var setups, loads []float64
	for i := 0; i < fleetSetupRepeats; i++ {
		if f != nil {
			f.stop()
			f = nil
		}
		settle()
		start := time.Now()
		var load time.Duration
		f, load, err = startFleet(container)
		if err != nil {
			return fmt.Errorf("starting fleet: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		loads = append(loads, load.Seconds())
	}
	defer f.stop()
	r.note("setup_s", setups)
	r.set("setup_s", median(setups), unitS)
	if r.trace {
		r.set("bwtmatch.load_s", median(loads), unitS)
	}
	r.set("index_bytes_per_base", float64(f.idx.SizeBytes())/float64(f.idx.Len()), unitBPB)

	var nextUnique atomic.Int64
	var cls [clients]*client.Client
	var rngs [clients]*rand.Rand
	var transport [clients][]float64
	recordTransport := false
	for c := range cls {
		cls[c] = client.New(f.coordURL())
		rngs[c] = rand.New(rand.NewSource(derive(r.seed, 8+int64(c))))
	}
	op := func(c int) (time.Duration, int, string) {
		reads := make([]server.Read, fleetBatch)
		picks := make([]simRead, fleetBatch)
		keys := make([]string, fleetBatch)
		for j := range reads {
			if rngs[c].Float64() < fleetHotShare {
				h := rngs[c].Intn(len(hot))
				picks[j], keys[j] = hot[h], "h"+strconv.Itoa(h)
			} else {
				u := int(nextUnique.Add(1)-1) % len(unique)
				picks[j], keys[j] = unique[u], "u"+strconv.Itoa(u)
			}
			reads[j].Seq = string(picks[j].seq)
		}
		start := time.Now()
		resp, err := cls[c].Search(context.Background(), server.SearchRequest{Index: fleetIndexName, K: fleetK, Reads: reads})
		lat := time.Since(start)
		if err != nil {
			return lat, fleetBatch, err.Error()
		}
		if recordTransport {
			transport[c] = append(transport[c], float64(lat)/1e6-resp.ElapsedMS)
		}
		return lat, fleetBatch, checkBatch(text, resp, picks, keys, want)
	}
	warm := closedLoop(r.warmup(), op)
	r.account(warm.ops, warm.failures)
	if !r.trace {
		r.recordLoop(closedLoop(r.dur, op), true)
		r.setPeakRSS()
		return nil
	}

	rt0 := sampleRuntime()
	untraced := closedLoop(r.dur/2, op)
	rt1 := sampleRuntime()
	r.recordLoop(untraced, false)
	r.setRuntime(rt0, rt1)

	ctx := context.Background()
	coordClient := client.New(f.coordURL())
	m0, err := coordClient.Metrics(ctx)
	if err != nil {
		return err
	}
	poller := newFlightPoller(f.urls)
	recordTransport = true
	traced := closedLoop(r.dur/2, op)
	recs := poller.stop()
	m1, err := coordClient.Metrics(ctx)
	if err != nil {
		return err
	}
	r.recordLoop(traced, false)
	r.set("trace_overhead", (float64(traced.items)/traced.elapsed.Seconds())/(float64(untraced.items)/untraced.elapsed.Seconds()), unitRatio)

	delta := func(key string) float64 { return num(m1[key]) - num(m0[key]) }
	if reads := delta("cluster_reads_total"); reads > 0 {
		r.set("cluster.cache_hit_ratio", delta("cache_hits_total")/reads, unitRatio)
	}
	r.set("cluster.coalesced_reads", delta("cache_inflight_dedup_total"), unitCount)
	r.set("cluster.shed", delta("cluster_shed_total"), unitCount)
	var all []float64
	for c := range transport {
		all = append(all, transport[c]...)
	}
	r.set("client.transport_ms", median(all), unitMS)

	workerRecs := append(recs[0], recs[1]...)
	r.set("server.queue_ms", median(phaseMS(workerRecs, "queue")), unitMS)
	r.set("server.search_ms", median(phaseMS(workerRecs, "search")), unitMS)
	r.set("cluster.fanout_ms", median(phaseMS(recs[2], "fanout")), unitMS)
	r.set("cluster.merge_ms", median(phaseMS(recs[2], "merge")), unitMS)
	// Each fresh read reaches both workers, one shard each, so a read's
	// search work is the sum of the two workers' per-read work.
	var leaves, steps float64
	for _, wr := range recs[:2] {
		var l, s, n float64
		for _, rec := range wr {
			l += float64(rec.Leaves)
			s += float64(rec.Steps)
			n += float64(rec.Reads)
		}
		if n > 0 {
			leaves += l / n
			steps += s / n
		}
	}
	r.set("core.leaves", leaves, unitCount)
	r.set("core.steps", steps, unitCount)

	us, err := handlerCost(f, unique)
	if err != nil {
		return err
	}
	r.set("server.handler_us_per_read", us, unitUS)
	return nil
}

// checkBatch checks one fleet answer: a full, non-partial result per
// read, each passing verify, and equal to the monolithic index's answer
// where one was computed.
func checkBatch(text []byte, resp *server.SearchResponse, picks []simRead, keys []string, want fleetExpected) string {
	if resp.Partial || len(resp.Results) != len(picks) {
		return fmt.Sprintf("batch %s: partial=%v, %d results for %d reads", resp.RequestID, resp.Partial, len(resp.Results), len(picks))
	}
	for j, res := range resp.Results {
		if res.Error != "" {
			return fmt.Sprintf("read %s: %s", keys[j], res.Error)
		}
		ms := make([]bwtmatch.Match, len(res.Matches))
		for i, m := range res.Matches {
			ms[i] = bwtmatch.Match{Pos: m.Pos, Mismatches: m.Mismatches}
		}
		if msg := verify(text, picks[j], ms, fleetK); msg != "" {
			return msg
		}
		if exp, ok := want[keys[j]]; ok {
			if err := sameMatches(ms, exp); err != nil {
				return fmt.Sprintf("read %s differs from the monolithic index: %v", keys[j], err)
			}
		}
	}
	return ""
}

// handlerCost estimates the worker's decode/validate/encode cost per
// read: the time a worker handler takes for a batch minus the time the
// sharded index takes to search the same batch directly.
func handlerCost(f *fleet, unique []simRead) (float64, error) {
	h := f.workers[0].Handler()
	// Name every shard, as a coordinator does, so the handler takes the
	// same search path as the direct call.
	allShards := make([]int, f.idx.Shards())
	for i := range allShards {
		allShards[i] = i
	}
	var diffs []float64
	for i := 0; i < handlerSamples; i++ {
		reads := make([]server.Read, fleetBatch)
		queries := make([]bwtmatch.Query, fleetBatch)
		for j := range reads {
			seq := unique[len(unique)-1-(i*fleetBatch+j)].seq
			reads[j].Seq = string(seq)
			queries[j] = bwtmatch.Query{Pattern: seq, K: fleetK}
		}
		body, err := json.Marshal(server.SearchRequest{Index: fleetIndexName, K: fleetK, Reads: reads, Shards: allShards})
		if err != nil {
			return 0, err
		}
		viaHandler := func() (time.Duration, error) {
			req := httptest.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			start := time.Now()
			h.ServeHTTP(rec, req)
			d := time.Since(start)
			if rec.Code != http.StatusOK {
				return d, fmt.Errorf("worker handler: status %d: %s", rec.Code, rec.Body.String())
			}
			return d, nil
		}
		direct := func() time.Duration {
			start := time.Now()
			f.idx.MapShardsContext(context.Background(), queries, bwtmatch.AlgorithmA, clients, allShards)
			return time.Since(start)
		}
		// Alternate which side runs first, so neither always finds the
		// caches warmed by the other.
		var dh, dd time.Duration
		if i%2 == 0 {
			dh, err = viaHandler()
			dd = direct()
		} else {
			dd = direct()
			dh, err = viaHandler()
		}
		if err != nil {
			return 0, err
		}
		diffs = append(diffs, float64(dh-dd)/1e3/fleetBatch)
	}
	return median(diffs), nil
}

// flightRecord is the part of a /debug/flightrecorder record the
// benchmark reads.
type flightRecord struct {
	RID      string             `json:"rid"`
	PhasesMS map[string]float64 `json:"phases_ms"`
	Reads    int64              `json:"reads"`
	Leaves   int64              `json:"mtree_leaves"`
	Steps    int64              `json:"step_calls"`
	Shed     bool               `json:"shed"`
}

// flightPoller scrapes the flight recorders of a set of processes while
// a phase runs, keeping each record once. Each recorder keeps only its
// last 64 records, so it is polled well before that many batches pass.
type flightPoller struct {
	urls []string
	quit chan struct{}
	done chan struct{}
	seen []map[string]bool
	recs [][]flightRecord
}

func newFlightPoller(urls []string) *flightPoller {
	p := &flightPoller{
		urls: urls,
		quit: make(chan struct{}),
		done: make(chan struct{}),
		seen: make([]map[string]bool, len(urls)),
		recs: make([][]flightRecord, len(urls)),
	}
	for i := range p.seen {
		p.seen[i] = map[string]bool{}
	}
	// Records already in the rings belong to the phase before.
	p.poll()
	for i := range p.recs {
		p.recs[i] = nil
	}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				p.poll()
				return
			case <-tick.C:
				p.poll()
			}
		}
	}()
	return p
}

func (p *flightPoller) poll() {
	for i, u := range p.urls {
		resp, err := http.Get(u + "/debug/flightrecorder")
		if err != nil {
			continue
		}
		var snap struct {
			Recent []flightRecord `json:"recent"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			continue
		}
		for _, rec := range snap.Recent {
			if rec.Shed || p.seen[i][rec.RID] {
				continue
			}
			p.seen[i][rec.RID] = true
			p.recs[i] = append(p.recs[i], rec)
		}
	}
}

// stop ends polling after one last scrape and returns the records per
// URL.
func (p *flightPoller) stop() [][]flightRecord {
	close(p.quit)
	<-p.done
	return p.recs
}

func phaseMS(recs []flightRecord, phase string) []float64 {
	var out []float64
	for _, rec := range recs {
		if v, ok := rec.PhasesMS[phase]; ok {
			out = append(out, v)
		}
	}
	return out
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
