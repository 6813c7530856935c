package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"bwtmatch/internal/obs"
)

// clients is the closed-loop concurrency of every workload: one
// goroutine (or connection) per CPU of the 2-CPU reference machine.
const clients = 2

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	latMS    []float64 // per-operation latency
	ops      int64
	items    int64 // reads answered (an operation is one read or one batch)
	elapsed  time.Duration
	failures []string
}

// opFunc performs client c's next operation. It returns how long the
// measured call took (answer checks excluded), how many reads it
// answered, and a non-empty reason if the answer failed its check.
type opFunc func(c int) (lat time.Duration, items int, failure string)

// closedLoop runs `clients` goroutines, each issuing its next operation
// only after the previous one returned, until dur has elapsed.
func closedLoop(dur time.Duration, op opFunc) loopResult {
	type part struct {
		lat      []float64
		items    int64
		failures []string
	}
	parts := make([]part, clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for time.Now().Before(deadline) {
				lat, items, failure := op(c)
				p.lat = append(p.lat, float64(lat)/1e6)
				p.items += int64(items)
				if failure != "" {
					p.failures = append(p.failures, failure)
				}
			}
		}(c)
	}
	wg.Wait()
	res := loopResult{elapsed: time.Since(start)}
	for _, p := range parts {
		res.latMS = append(res.latMS, p.lat...)
		res.items += p.items
		res.failures = append(res.failures, p.failures...)
	}
	res.ops = int64(len(res.latMS))
	return res
}

// recordLoop books a timed phase's operations into the run and, for an
// untraced run, sets the throughput and latency metrics.
func (r *run) recordLoop(res loopResult, endToEnd bool) {
	r.account(res.ops, res.failures)
	r.mu.Lock()
	r.ops += res.ops
	r.mu.Unlock()
	if !endToEnd {
		return
	}
	r.set("reads_per_s", float64(res.items)/res.elapsed.Seconds(), unitRPS)
	r.set("op_p50_ms", quantile(res.latMS, 0.50), unitMS)
	r.set("op_p99_ms", quantile(res.latMS, 0.99), unitMS)
}

// quantile returns the q-quantile of xs by nearest rank (the smallest
// value with at least q of the samples at or below it); xs is sorted in
// place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// settle collects garbage and returns freed memory to the OS, so that
// one set-up repetition's leftovers do not raise the next one's peak.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setPeakRSS reports the process's resident high-water mark.
func (r *run) setPeakRSS() {
	r.set("peak_rss_mib", float64(obs.PeakRSS())/(1<<20), unitMiB)
}

// runtimeSample is a snapshot of the Go runtime counters the traced
// run reports.
type runtimeSample struct {
	gcCycles, gcCPU, totalCPU, heapLive float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{gcCycles: val(0), gcCPU: val(1), totalCPU: val(2), heapLive: val(3)}
}

// setRuntime reports the Go runtime's work between two samples.
func (r *run) setRuntime(before, after runtimeSample) {
	r.set("go.gc_cycles", after.gcCycles-before.gcCycles, unitCount)
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		r.set("go.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu, unitRatio)
	}
	r.set("go.heap_live_mib", after.heapLive/(1<<20), unitMiB)
}
