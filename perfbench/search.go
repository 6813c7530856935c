package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/obs"
)

const (
	// setupRepeats is how often a run repeats its set-up; setup_s is the
	// median.
	setupRepeats = 3
	// searchReads is the read pool of the in-process workloads, more
	// than map-highk and tenant-relative answer in a run, so their reads
	// do not repeat.
	searchReads = 1 << 15
	// scanOracleReads are checked against a full-text scan, and
	// equivalenceReads against a standalone index (tenant-relative).
	scanOracleReads  = 16
	equivalenceReads = 256
	tenantDivergence = 0.01
)

// warmup is the untimed closed-loop phase before measuring.
func (r *run) warmup() time.Duration { return min(time.Second, r.dur/10) }

// runMap is map-lowk (k=1) and map-highk (k=4): one monolithic index
// over the 4 MiB genome, searched read by read with Algorithm A.
func runMap(r *run, k int) error {
	g, err := genome(mapGenomeBases)
	if err != nil {
		return err
	}
	text := alphabet.Decode(g)
	reads, err := simulate(g, searchReads, derive(r.seed, 2))
	if err != nil {
		return err
	}
	var idx *bwtmatch.Index
	var setups []float64
	var phases []bwtmatch.BuildPhases
	for i := 0; i < setupRepeats; i++ {
		idx = nil
		settle()
		var ph bwtmatch.BuildPhases
		var opts []bwtmatch.Option
		if r.trace {
			opts = append(opts, bwtmatch.WithBuildPhases(&ph))
		}
		start := time.Now()
		idx, err = bwtmatch.New(text, opts...)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		phases = append(phases, ph)
	}
	r.note("setup_s", setups)
	r.set("setup_s", median(setups), unitS)
	r.setBuildPhases(phases)
	r.set("index_bytes_per_base", float64(idx.SizeBytes())/float64(idx.Len()), unitBPB)

	// Oracle: a seeded sample against a full-text scan.
	for _, i := range sample(len(reads), scanOracleReads, derive(r.seed, 3)) {
		seq := reads[i].seq
		got, _, err := idx.SearchMethod(seq, k, bwtmatch.AlgorithmA)
		if err == nil {
			err = sameMatches(got, scanMatches(text, seq, k))
		}
		r.check(wrapCheck("scan oracle", i, err))
	}
	return r.measureSearch(idx, nil, text, reads, k)
}

// runTenant is tenant-relative: a tenant 1% away from a 2 MiB base,
// served as a delta against it, searched at k=2.
func runTenant(r *run) error {
	const k = 2
	g, err := genome(tenantBaseBases)
	if err != nil {
		return err
	}
	baseText := alphabet.Decode(g)
	tg := mutate(g, tenantDivergence, derive(r.seed, 4))
	tenantText := alphabet.Decode(tg)
	reads, err := simulate(tg, searchReads, derive(r.seed, 2))
	if err != nil {
		return err
	}
	var rx *bwtmatch.RelativeIndex
	var setups, aligns []float64
	var phases []bwtmatch.BuildPhases
	for i := 0; i < setupRepeats; i++ {
		rx = nil
		settle()
		var basePh, tenantPh bwtmatch.BuildPhases
		var baseOpts, tenantOpts []bwtmatch.Option
		if r.trace {
			baseOpts = append(baseOpts, bwtmatch.WithBuildPhases(&basePh))
			tenantOpts = append(tenantOpts, bwtmatch.WithBuildPhases(&tenantPh))
		}
		start := time.Now()
		base, err := bwtmatch.New(baseText, baseOpts...)
		if err != nil {
			return fmt.Errorf("base build: %w", err)
		}
		relStart := time.Now()
		rx, err = bwtmatch.NewRelative(base, tenantText, tenantOpts...)
		if err != nil {
			return fmt.Errorf("relative build: %w", err)
		}
		end := time.Now()
		setups = append(setups, end.Sub(start).Seconds())
		// NewRelative indexes the tenant standalone, then aligns it to
		// the base; the alignment is what remains after the build phases.
		aligns = append(aligns, end.Sub(relStart).Seconds()-phaseSeconds(tenantPh))
		phases = append(phases, bwtmatch.BuildPhases{
			SANS:   basePh.SANS + tenantPh.SANS,
			BWTNS:  basePh.BWTNS + tenantPh.BWTNS,
			OccNS:  basePh.OccNS + tenantPh.OccNS,
			PackNS: basePh.PackNS + tenantPh.PackNS,
		})
	}
	r.note("setup_s", setups)
	r.set("setup_s", median(setups), unitS)
	r.setBuildPhases(phases)
	if r.trace {
		r.set("relative.align_s", median(aligns), unitS)
	}
	r.set("index_bytes_per_base", float64(rx.DeltaBytes())/float64(rx.Len()), unitBPB)

	// Oracle: byte-identical answers to a standalone index of the tenant.
	standalone, err := bwtmatch.New(tenantText)
	if err != nil {
		return fmt.Errorf("standalone build: %w", err)
	}
	for _, i := range sample(len(reads), equivalenceReads, derive(r.seed, 3)) {
		got, _, err := rx.SearchMethod(reads[i].seq, k, bwtmatch.AlgorithmA)
		if err == nil {
			var want []bwtmatch.Match
			want, _, err = standalone.SearchMethod(reads[i].seq, k, bwtmatch.AlgorithmA)
			if err == nil {
				err = sameMatches(got, want)
			}
		}
		r.check(wrapCheck("standalone equivalence", i, err))
	}
	standalone = nil
	settle()
	return r.measureSearch(rx, rx, tenantText, reads, k)
}

func wrapCheck(what string, read int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s, read %d: %w", what, read, err)
}

func phaseSeconds(ph bwtmatch.BuildPhases) float64 {
	return float64(ph.SANS+ph.BWTNS+ph.OccNS+ph.PackNS) / 1e9
}

// setBuildPhases reports the median of each build phase over the
// set-up repetitions (traced runs only; untraced runs leave them unset).
func (r *run) setBuildPhases(phases []bwtmatch.BuildPhases) {
	if !r.trace {
		return
	}
	pick := func(f func(bwtmatch.BuildPhases) int64) float64 {
		xs := make([]float64, len(phases))
		for i, ph := range phases {
			xs[i] = float64(f(ph)) / 1e9
		}
		return median(xs)
	}
	r.set("fmindex.build_sa_s", pick(func(p bwtmatch.BuildPhases) int64 { return p.SANS }), unitS)
	r.set("fmindex.build_bwt_s", pick(func(p bwtmatch.BuildPhases) int64 { return p.BWTNS }), unitS)
	r.set("fmindex.build_occ_s", pick(func(p bwtmatch.BuildPhases) int64 { return p.OccNS }), unitS)
	r.set("fmindex.build_pack_s", pick(func(p bwtmatch.BuildPhases) int64 { return p.PackNS }), unitS)
}

// measureSearch runs the closed loop of single-read searches against m,
// checking every answer against text. An untraced run times
// SearchMethodScratch with one pinned Scratch per client; a traced run
// times half the duration that way and half through SearchMethodTraced
// with the benchmark's span tracer, and reports the per-layer split.
// rel, when non-nil, is m's relative layout, whose delta counters are
// reported per read.
func (r *run) measureSearch(m bwtmatch.Matcher, rel *bwtmatch.RelativeIndex, text []byte, reads []simRead, k int) error {
	var next atomic.Int64
	var scratch [clients]*bwtmatch.Scratch
	var dst [clients][]bwtmatch.Match
	for c := range scratch {
		scratch[c] = bwtmatch.NewScratch()
	}
	plain := func(c int) (time.Duration, int, string) {
		rd := reads[int(next.Add(1)-1)%len(reads)]
		start := time.Now()
		ms, _, err := m.SearchMethodScratch(scratch[c], dst[c][:0], rd.seq, k, bwtmatch.AlgorithmA)
		lat := time.Since(start)
		dst[c] = ms
		if err != nil {
			return lat, 1, err.Error()
		}
		return lat, 1, verify(text, rd, ms, k)
	}
	warm := closedLoop(r.warmup(), plain)
	r.account(warm.ops, warm.failures)
	if !r.trace {
		r.recordLoop(closedLoop(r.dur, plain), true)
		r.setPeakRSS()
		return nil
	}

	rt0 := sampleRuntime()
	untraced := closedLoop(r.dur/2, plain)
	rt1 := sampleRuntime()
	r.recordLoop(untraced, false)
	r.setRuntime(rt0, rt1)

	var tracers [clients]spanTracer
	var stats [clients]bwtmatch.Stats
	var hits0, corr0 int64
	if rel != nil {
		hits0, corr0 = rel.DeltaCounters()
	}
	traced := closedLoop(r.dur/2, func(c int) (time.Duration, int, string) {
		rd := reads[int(next.Add(1)-1)%len(reads)]
		start := time.Now()
		ms, st, err := m.SearchMethodTraced(rd.seq, k, bwtmatch.AlgorithmA, &tracers[c])
		lat := time.Since(start)
		if err != nil {
			return lat, 1, err.Error()
		}
		stats[c].MTreeLeaves += st.MTreeLeaves
		stats[c].StepCalls += st.StepCalls
		return lat, 1, verify(text, rd, ms, k)
	})
	r.recordLoop(traced, false)
	var tr spanTracer
	var steps, leaves float64
	for c := range tracers {
		tr.add(&tracers[c])
		steps += float64(stats[c].StepCalls)
		leaves += float64(stats[c].MTreeLeaves)
	}
	n := float64(traced.items)
	r.set("core.phi_us", float64(tr.selfNS[spanPhi])/n/1e3, unitUS)
	r.set("core.traverse_us", float64(tr.selfNS[spanTraverse])/n/1e3, unitUS)
	r.set("core.locate_us", float64(tr.selfNS[spanLocate])/n/1e3, unitUS)
	r.set("core.phi_steps", float64(tr.phiSteps)/n, unitCount)
	r.set("core.steps", steps/n, unitCount)
	r.set("core.leaves", leaves/n, unitCount)
	r.set("core.fallbacks", float64(tr.events[obs.EvFallback])/n, unitCount)
	r.set("core.locate_rows", float64(tr.locateRows)/n, unitCount)
	if derived := tr.events[obs.EvMerge] + tr.events[obs.EvExpand]; derived > 0 {
		r.set("core.memo_hit_ratio", float64(tr.events[obs.EvMerge])/float64(derived), unitRatio)
	}
	if steps > 0 {
		r.set("fmindex.ns_per_step", float64(tr.selfNS[spanTraverse])/steps, unitNS)
	}
	if rel != nil {
		hits1, corr1 := rel.DeltaCounters()
		r.set("relative.base_hits", float64(hits1-hits0)/n, unitCount)
		r.set("relative.corrections", float64(corr1-corr0)/n, unitCount)
	}
	untracedRate := float64(untraced.items) / untraced.elapsed.Seconds()
	r.set("trace_overhead", (n/traced.elapsed.Seconds())/untracedRate, unitRatio)
	return nil
}
