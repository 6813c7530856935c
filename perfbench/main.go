// Command perfbench is the repository's benchmark: four seeded
// workloads that drive the library, the relative layout and the serving
// fleet through their public entry points, check every answer, and
// print end-to-end metrics (untraced runs) or per-layer metrics (traced
// runs). README.md explains the workloads and what each metric should
// move. Run it from the repository root through run.py, which builds
// this package first:
//
//	python3 perfbench/run.py --workload map-lowk --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it
// records the environment and the operation counts.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Metric units, as BENCHMARK.json declares them.
const (
	unitS     = "s"
	unitMS    = "ms"
	unitUS    = "us"
	unitRPS   = "reads/s"
	unitBPB   = "B/base"
	unitMiB   = "MiB"
	unitCount = "count"
	unitRatio = "ratio"
	unitNS    = "ns"
)

// endToEnd lists the metrics an untraced run prints, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", unitS},
	{"reads_per_s", unitRPS},
	{"op_p50_ms", unitMS},
	{"op_p99_ms", unitMS},
	{"index_bytes_per_base", unitBPB},
	{"peak_rss_mib", unitMiB},
}

// perLayer lists the metrics a traced run prints. A workload that does
// not run a layer reports that layer's metrics as 0 (README.md).
var perLayer = []struct{ name, unit string }{
	{"fmindex.build_sa_s", unitS},
	{"fmindex.build_bwt_s", unitS},
	{"fmindex.build_occ_s", unitS},
	{"fmindex.build_pack_s", unitS},
	{"relative.align_s", unitS},
	{"bwtmatch.load_s", unitS},
	{"core.phi_us", unitUS},
	{"core.traverse_us", unitUS},
	{"core.locate_us", unitUS},
	{"core.phi_steps", unitCount},
	{"core.steps", unitCount},
	{"core.leaves", unitCount},
	{"core.fallbacks", unitCount},
	{"core.locate_rows", unitCount},
	{"core.memo_hit_ratio", unitRatio},
	{"fmindex.ns_per_step", unitNS},
	{"relative.base_hits", unitCount},
	{"relative.corrections", unitCount},
	{"server.queue_ms", unitMS},
	{"server.search_ms", unitMS},
	{"server.handler_us_per_read", unitUS},
	{"cluster.fanout_ms", unitMS},
	{"cluster.merge_ms", unitMS},
	{"cluster.cache_hit_ratio", unitRatio},
	{"cluster.coalesced_reads", unitCount},
	{"cluster.shed", unitCount},
	{"client.transport_ms", unitMS},
	{"go.gc_cycles", unitCount},
	{"go.gc_cpu_frac", unitRatio},
	{"go.heap_live_mib", unitMiB},
	{"trace_overhead", unitRatio},
}

var workloads = map[string]func(*run) error{
	"map-lowk":        func(r *run) error { return runMap(r, 1) },
	"map-highk":       func(r *run) error { return runMap(r, 4) },
	"tenant-relative": runTenant,
	"serve-fleet":     runFleet,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one benchmark invocation: its settings, the answer-check
// ledger and the metrics it collects.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	trace    bool
	workDir  string

	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	ops       int64
	metrics   map[string]metric
	// samples keeps the repetitions behind a median for the report.
	samples map[string][]float64
}

// note records the repetitions a metric's median was taken over.
func (r *run) note(name string, xs []float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples[name] = xs
}

func (r *run) set(name string, v float64, unit string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// account adds checked operations to the ledger; failed ones also keep
// their first few reasons for the report.
func (r *run) account(attempted int64, failures []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += attempted
	r.failed += int64(len(failures))
	for _, f := range failures {
		if len(r.problems) < 8 {
			r.problems = append(r.problems, f)
		}
	}
}

// check records one answer check that is not a timed operation (an
// oracle comparison): it counts as attempted, and as failed when err
// is non-nil.
func (r *run) check(err error) {
	if err != nil {
		r.account(1, []string{err.Error()})
		return
	}
	r.account(1, nil)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload name: map-lowk, map-highk, tenant-relative or serve-fleet")
		seed     = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds  = flag.Float64("seconds", 10, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		workDir  = flag.String("workdir", ".bench_build", "directory for temporary files (the serving container)")
		commit   = flag.String("commit", "unknown", "commit the program was built from, for the environment stamp")
		prepare  = flag.String("prepare-fleet", "", "internal: write the serve-fleet container and expected answers to this path, then exit")
	)
	flag.Parse()
	if *prepare != "" {
		if err := prepareFleet(*prepare, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prepare-fleet:", err)
			return 1
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	// A run that hangs must still end within three minutes, with a
	// non-zero exit and no result line.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s, aborting")
		os.Exit(3)
	})
	defer watchdog.Stop()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		dur:      time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		workDir:  *workDir,
		metrics:  map[string]metric{},
		samples:  map[string][]float64{},
	}
	if err := fn(r); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if r.trace {
		want = perLayer
	}
	out := make(map[string]metric, len(want))
	for _, m := range want {
		v, ok := r.metrics[m.name]
		if !ok && !r.trace {
			fmt.Fprintln(os.Stderr, "perfbench: no measurement for", m.name)
			return 1
		}
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}
	stamp := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    *seconds,
		"trace":      *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"commit":     *commit,
		"source":     sourceDigest("."),
		"operations": r.ops,
		"attempted":  r.attempted,
		"failed":     r.failed,
		"problems":   r.problems,
		"samples":    r.samples,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"perfbench_env": stamp}); err != nil {
		return 1
	}
	if err := enc.Encode(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out}); err != nil {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under root, so a
// report identifies the code it measured even where no commit id is
// available (a checkout that is not a git repository).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
