package core

import (
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/obs"
)

// searchSTree is the brute-force S-tree traversal of [34] (§IV-A): a DFS
// over ⟨x, [α, β]⟩ pairs, branching into all four bases at every level and
// charging one mismatch whenever the consumed base differs from the
// pattern character at that level. A non-nil phi (from phiBound) prunes
// branches that provably cannot finish within budget. A non-nil tr
// receives one EvLeaf per maximal path, matching Stats.MTreeLeaves
// exactly as in the M-tree search.
func (s *Searcher) searchSTree(sc *Scratch, pattern []byte, k int, phi []int, stats *Stats, tr obs.Tracer) []leaf {
	m := len(pattern)
	stack := append(sc.frames[:0], frame{iv: s.idx.Full()})
	leaves := sc.out[:0]
	defer func() { sc.frames, sc.out = stack, leaves }()
	var kids [alphabet.Bases]fmindex.Interval
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		stats.Nodes++
		if f.j == m {
			stats.MTreeLeaves++
			if tr != nil {
				tr.Emit(obs.EvLeaf,
					obs.Arg{Key: "mism", Val: int64(f.mism)},
					obs.Arg{Key: "rows", Val: int64(f.iv.Len())})
			}
			leaves = append(leaves, leaf{iv: f.iv, mism: f.mism})
			continue
		}
		s.idx.StepAll(f.iv, &kids)
		stats.StepCalls++
		pushed := false
		for x := byte(alphabet.A); x <= alphabet.T; x++ {
			civ := kids[x-1]
			if civ.Empty() {
				continue
			}
			e := f.mism
			if x != pattern[f.j] {
				e++
				if e > k {
					continue
				}
			}
			if phi != nil && e+phi[f.j+1] > k {
				stats.PhiPruned++
				continue
			}
			stack = append(stack, frame{iv: civ, j: f.j + 1, mism: e})
			pushed = true
		}
		if !pushed {
			// Dead end: a maximal path terminates here.
			stats.MTreeLeaves++
			if tr != nil {
				tr.Emit(obs.EvLeaf)
			}
		}
	}
	return leaves
}

// phiFunc computes the φ array of a pattern and the backward-search
// steps it spent; computePhi is the only production implementation.
type phiFunc func(s *Searcher, sc *Scratch, pattern []byte) ([]int, int)

// phiBound runs phiOf inside a traced "phi" span and bills its steps to
// Stats.PhiSteps (not StepCalls, which counts traversal work only).
func (s *Searcher) phiBound(sc *Scratch, pattern []byte, phiOf phiFunc, stats *Stats, tr obs.Tracer) []int {
	if tr != nil {
		tr.Begin("phi")
	}
	phi, steps := phiOf(s, sc, pattern)
	stats.PhiSteps = steps
	if tr != nil {
		tr.End(
			obs.Arg{Key: "phi0", Val: int64(phi[0])},
			obs.Arg{Key: "step_calls", Val: int64(steps)})
	}
	return phi
}

// computePhi returns φ where φ[i] (0-based, φ[m] = 0) is the number of
// consecutive, disjoint substrings of pattern[i:] that do not occur in the
// target (§IV-A), taking the shortest absent prefix each time. Each absent
// substring forces at least one mismatch, so a branch with e mismatches
// spent at position i is hopeless if e + φ[i] > k. The second result is
// the number of backward-search steps spent on occurrence tests.
//
// φ is non-increasing and drops by at most one per position, so it is
// fully described by its breakpoints t₁ > t₂ > …: t₁ is the largest i
// with pattern[i:] absent and t_{v+1} the largest i with pattern[i:t_v]
// absent; φ is v on (t_{v+1}, t_v]. "pattern[i:hi] is absent" is monotone
// in i and costs one MatchLen (a forward extension of the pattern, which
// on the reverse-text index is a run of backward-search steps), so each
// breakpoint is found by galloping left from hi (distances 1, 2, 4, …)
// and bisecting the last gap. With ℓ the typical length of a shortest
// absent substring, that is about φ[0]+1 searches of O(ℓ log ℓ) steps,
// instead of m walks of about ℓ steps each (one per start position).
func (s *Searcher) computePhi(sc *Scratch, pattern []byte) ([]int, int) {
	m := len(pattern)
	sc.phi = intBuf(sc.phi, m+1)
	phi := sc.phi
	steps := 0
	absent := func(i, hi int) bool {
		matched, st := s.idx.MatchLen(pattern[i:hi])
		steps += st
		return matched < hi-i
	}
	for v, hi := 0, m; ; v++ {
		// Gallop: pattern[lo:hi] absent, pattern[present:hi] present.
		lo, present := -1, hi
		for d := 1; lo < 0 && present > 0; d *= 2 {
			if i := max(hi-d, 0); absent(i, hi) {
				lo = i
			} else {
				present = i
			}
		}
		if lo < 0 {
			// pattern[:hi] occurs: no further breakpoint.
			fillInts(phi[:hi+1], v)
			return phi, steps
		}
		for present-lo > 1 {
			if mid := (lo + present) / 2; absent(mid, hi) {
				lo = mid
			} else {
				present = mid
			}
		}
		fillInts(phi[lo+1:hi+1], v)
		hi = lo
	}
}

// fillInts sets every element of buf to v.
func fillInts(buf []int, v int) {
	for i := range buf {
		buf[i] = v
	}
}
