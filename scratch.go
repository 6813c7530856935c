package bwtmatch

import (
	"fmt"
	"sync"

	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/core"
)

// Scratch is the reusable working set for the BWT-path search methods
// (AlgorithmA, AlgorithmANoPhi, BWTBaseline, STree): the encoded
// pattern, the M-tree arenas, the open-addressed interval memo and the
// locate buffer, all retained across calls. A warm Scratch makes
// SearchMethodScratch allocation-free apart from growth of the
// caller's destination slice (see DESIGN.md §8).
//
// A Scratch is not safe for concurrent use: pin one per goroutine.
// It holds no reference to any Index, so the same Scratch can serve
// queries against different indexes.
type Scratch struct {
	core  *core.Scratch
	ranks []byte
	cms   []core.Match
}

// NewScratch returns an empty Scratch; buffers grow on first use.
func NewScratch() *Scratch { return &Scratch{core: core.NewScratch()} }

// scratchPool backs the convenience entry points (SearchMethod and
// friends), which borrow a Scratch per call instead of allocating the
// working set from scratch.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// SearchMethodScratch is SearchMethod with caller-managed memory: all
// working state lives in sc and matches are appended to dst (which may
// be nil). With a warm sc and a dst of sufficient capacity, a call
// performs zero heap allocations. Only the BWT-path methods are
// supported; other methods return an error.
func (x *Index) SearchMethodScratch(sc *Scratch, dst []Match, pattern []byte, k int, method Method) ([]Match, Stats, error) {
	var st Stats
	cm, ok := coreMethods[method]
	if !ok {
		return dst, st, fmt.Errorf("%w: method %v has no scratch path (use SearchMethod)", ErrInput, method)
	}
	p, err := alphabet.AppendEncode(sc.ranks[:0], pattern)
	sc.ranks = p
	if err != nil {
		return dst, st, fmt.Errorf("%w: %v", ErrInput, err)
	}
	if len(p) == 0 {
		return dst, st, fmt.Errorf("%w: empty pattern", ErrInput)
	}
	if k < 0 {
		return dst, st, fmt.Errorf("%w: negative k", ErrInput)
	}
	cms, cs, err := x.searcher.FindScratch(sc.core, sc.cms[:0], p, k, cm, nil)
	sc.cms = cms
	if err != nil {
		return dst, st, err
	}
	st.fromCore(cs)
	for _, m := range cms {
		dst = append(dst, Match{Pos: int(m.Pos), Mismatches: m.Mismatches})
	}
	return dst, st, nil
}

// fromCore copies the counters a core search reports into the public
// Stats shape.
func (st *Stats) fromCore(cs core.Stats) {
	st.MTreeLeaves = cs.MTreeLeaves
	st.StepCalls = cs.StepCalls
	st.PhiSteps = cs.PhiSteps
	st.MemoHits = cs.MemoHits
	st.LocateNS = cs.LocateNS
}

// add accumulates another query's (or another shard's) counters into st;
// sharded searches sum per-shard work into one Stats.
func (st *Stats) add(o Stats) {
	st.MTreeLeaves += o.MTreeLeaves
	st.StepCalls += o.StepCalls
	st.PhiSteps += o.PhiSteps
	st.MemoHits += o.MemoHits
	st.Candidates += o.Candidates
	st.Visited += o.Visited
	st.LocateNS += o.LocateNS
}
