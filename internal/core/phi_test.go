package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"bwtmatch/internal/fmindex"
	"bwtmatch/internal/naive"
)

// naivePhi computes φ per its definition: the number of consecutive,
// disjoint substrings of pattern[i:] absent from the target, taking at
// each step the SHORTEST absent prefix (greedy), which is what the
// FM-based computation produces.
func naivePhi(text, pattern []byte) []int {
	m := len(pattern)
	occurs := func(sub []byte) bool {
		return len(naive.Find(text, sub, 0)) > 0
	}
	phi := make([]int, m+1)
	for i := m - 1; i >= 0; i-- {
		// Find the smallest q >= i with pattern[i..q] absent.
		q := i
		for q < m && occurs(pattern[i:q+1]) {
			q++
		}
		if q >= m {
			phi[i] = 0
		} else {
			phi[i] = 1 + phi[q+1]
		}
	}
	return phi
}

// restartPhi is the m-restart φ computation that computePhi's breakpoint
// method replaced, kept as its reference: one MatchLen from every
// pattern position i gives absentEnd(i), the end of the shortest absent
// prefix of pattern[i:], and φ[i] = 1 + φ[absentEnd(i)+1].
func restartPhi(s *Searcher, sc *Scratch, pattern []byte) ([]int, int) {
	m := len(pattern)
	steps := 0
	absentEnd := make([]int, m)
	for i := range absentEnd {
		matched, st := s.idx.MatchLen(pattern[i:])
		steps += st
		absentEnd[i] = i + matched // pattern[i..i+matched] is absent (== m: none)
	}
	sc.phi = intBuf(sc.phi, m+1)
	phi := sc.phi
	phi[m] = 0
	for i := m - 1; i >= 0; i-- {
		if absentEnd[i] >= m {
			phi[i] = 0
		} else {
			phi[i] = 1 + phi[absentEnd[i]+1]
		}
	}
	return phi, steps
}

// phiCase is one target of TestPhiMatchesRestart: a Searcher, its text,
// and patterns to compare on, of which the first len(planted) are the
// planted reads that feed the step-count pin.
type phiCase struct {
	name     string
	s        *Searcher
	text     []byte
	planted  [][]byte
	patterns [][]byte
}

// plant copies text[pos:pos+m] and substitutes d distinct positions with
// a different base, so the window is an occurrence with exactly d
// mismatches.
func plant(rng *rand.Rand, text []byte, pos, m, d int) []byte {
	p := append([]byte(nil), text[pos:pos+m]...)
	for _, q := range rng.Perm(m)[:min(d, m)] {
		p[q] = 1 + (p[q]+byte(rng.Intn(3)))%4
	}
	return p
}

// homopolymerRanks returns n bases as runs of one base, 1–30 long.
func homopolymerRanks(rng *rand.Rand, n int) []byte {
	out := make([]byte, 0, n)
	for len(out) < n {
		b := byte(1 + rng.Intn(4))
		for r := 1 + rng.Intn(30); r > 0 && len(out) < n; r-- {
			out = append(out, b)
		}
	}
	return out
}

func reverseRanks(text []byte) []byte {
	rev := slices.Clone(text)
	slices.Reverse(rev)
	return rev
}

func phiCases(t *testing.T, rng *rand.Rand) []phiCase {
	t.Helper()
	searcher := func(text []byte) *Searcher {
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	random := randomRanks(rng, 4096)
	noT := make([]byte, 4096) // T never occurs, so any T is an absent substring
	for i := range noT {
		noT[i] = byte(1 + rng.Intn(3))
	}
	// A tenant 1% away from a base, served through the delta bridge.
	tenant := slices.Clone(random)
	for _, q := range rng.Perm(len(tenant))[:len(tenant)/100] {
		tenant[q] = 1 + tenant[q]%4
	}
	base, err := fmindex.Build(reverseRanks(random), fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tidx, err := fmindex.Build(reverseRanks(tenant), fmindex.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel, err := fmindex.MakeRelative(base, tidx)
	if err != nil {
		t.Fatal(err)
	}
	homo := homopolymerRanks(rng, 4096)
	short := randomRanks(rng, 40)

	cases := []phiCase{
		{name: "random", s: searcher(random), text: random},
		{name: "homopolymer", s: searcher(homo), text: homo},
		{name: "no-T", s: searcher(noT), text: noT},
		{name: "relative", s: NewSearcherFromIndex(rel, len(tenant)), text: tenant},
		{name: "short", s: searcher(short), text: short},
	}
	for i := range cases {
		c := &cases[i]
		n := len(c.text)
		for q := 0; q < 8 && n > 100; q++ {
			m := 30 + rng.Intn(70)
			c.planted = append(c.planted, plant(rng, c.text, rng.Intn(n-m), m, rng.Intn(5)))
		}
		c.patterns = append(c.patterns, c.planted...)
		for q := 0; q < 4; q++ {
			c.patterns = append(c.patterns, randomRanks(rng, 1+rng.Intn(40)))
		}
		for b := byte(1); b <= 4; b++ {
			c.patterns = append(c.patterns, []byte{b}) // m = 1
		}
		c.patterns = append(c.patterns, randomRanks(rng, n+1+rng.Intn(20))) // longer than the text
	}
	return cases
}

// TestPhiMatchesRestart pins the breakpoint computation to the restart
// reference: the same φ array, and therefore the same matches and the
// same search work for both φ-pruned methods, on monolithic and relative
// indexes. On planted reads it must also spend at most a third of the
// reference's steps.
func TestPhiMatchesRestart(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	sc, ref := NewScratch(), NewScratch()
	plantedSteps, plantedRef := 0, 0
	for _, c := range phiCases(t, rng) {
		for i, p := range c.patterns {
			got, steps := c.s.computePhi(sc, p)
			want, refSteps := restartPhi(c.s, ref, p)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: phi %v, restart %v (pattern %v)", c.name, got, want, p)
			}
			if i < len(c.planted) {
				plantedSteps += steps
				plantedRef += refSteps
			}
			// A pattern much shorter than k matches nearly everywhere, so
			// its search is all locate work; search short ones at k = 0.
			kmax := 5
			if len(p) < 12 {
				kmax = 0
			}
			for _, method := range []Method{MethodMTree, MethodSTreePhi} {
				for k := 0; k <= kmax; k++ {
					gotM, gotSt, err := c.s.FindScratch(sc, nil, p, k, method, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantM, wantSt, err := c.s.find(ref, nil, p, k, method, nil, restartPhi)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(gotM, wantM) {
						t.Fatalf("%s %v k=%d: matches %v, restart %v", c.name, method, k, gotM, wantM)
					}
					if len(p) <= c.s.N() && gotSt.PhiSteps != steps {
						t.Fatalf("%s %v k=%d: Stats.PhiSteps %d, computePhi spent %d", c.name, method, k, gotSt.PhiSteps, steps)
					}
					gotSt.LocateNS, wantSt.LocateNS = 0, 0
					gotSt.PhiSteps, wantSt.PhiSteps = 0, 0
					if gotSt != wantSt {
						t.Fatalf("%s %v k=%d: stats %+v, restart %+v", c.name, method, k, gotSt, wantSt)
					}
				}
			}
		}
	}
	t.Logf("planted reads: %d phi steps, restart %d", plantedSteps, plantedRef)
	if plantedRef == 0 || 3*plantedSteps > plantedRef {
		t.Fatalf("planted reads: %d phi steps, want at most a third of restart's %d", plantedSteps, plantedRef)
	}
}

func TestComputePhiAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 60; trial++ {
		text := randomRanks(rng, 20+rng.Intn(300))
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 5; q++ {
			m := 1 + rng.Intn(25)
			var pattern []byte
			if rng.Intn(2) == 0 && len(text) > m {
				p := rng.Intn(len(text) - m)
				pattern = append([]byte(nil), text[p:p+m]...)
				pattern[rng.Intn(m)] = byte(1 + rng.Intn(4))
			} else {
				pattern = randomRanks(rng, m)
			}
			got, _ := s.computePhi(NewScratch(), pattern)
			want := naivePhi(text, pattern)
			if len(got) != len(want) {
				t.Fatalf("phi length %d, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("phi[%d] = %d, want %d (text=%v pattern=%v)",
						i, got[i], want[i], text, pattern)
				}
			}
		}
	}
}

func TestPhiIsLowerBound(t *testing.T) {
	// φ[i] must never exceed the true minimal number of mismatches of any
	// alignment of pattern[i:] in the target — otherwise pruning with it
	// would drop real matches.
	rng := rand.New(rand.NewSource(82))
	for trial := 0; trial < 40; trial++ {
		text := randomRanks(rng, 30+rng.Intn(200))
		s, _ := NewSearcher(text, fmindex.DefaultOptions())
		m := 3 + rng.Intn(15)
		if m > len(text) {
			m = len(text)
		}
		pattern := randomRanks(rng, m)
		phi, _ := s.computePhi(NewScratch(), pattern)
		for i := 0; i <= m; i++ {
			suffix := pattern[i:]
			if len(suffix) == 0 {
				if phi[i] != 0 {
					t.Fatalf("phi[m] = %d", phi[i])
				}
				continue
			}
			best := len(suffix) + 1
			for p := 0; p+len(suffix) <= len(text); p++ {
				if d := naive.Hamming(text[p:p+len(suffix)], suffix, len(suffix)); d < best {
					best = d
				}
			}
			if len(text) >= len(suffix) && phi[i] > best {
				t.Fatalf("phi[%d] = %d exceeds true minimum %d (suffix %v, text %v)",
					i, phi[i], best, suffix, text)
			}
		}
	}
}

func TestPhiZeroForPlantedPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	text := randomRanks(rng, 1000)
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := text[200:240]
	phi, _ := s.computePhi(NewScratch(), pattern)
	for i, v := range phi {
		if v != 0 {
			t.Fatalf("phi[%d] = %d for an exactly-occurring pattern", i, v)
		}
	}
}

func TestPhiPaperSemantics(t *testing.T) {
	// Paper example (§IV-A): s = acagaca, r = tcaca: φ(1) = 2 because both
	// "t" and "cac" are absent; φ(3) = 0 since every substring of "aca"
	// occurs. (1-based paper positions; 0-based here.)
	text := mustRanks(t, "acagaca")
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	pattern := mustRanks(t, "tcaca")
	phi, _ := s.computePhi(NewScratch(), pattern)
	if phi[0] != 2 {
		t.Errorf("phi[0] = %d, want 2", phi[0])
	}
	if phi[2] != 0 {
		t.Errorf("phi[2] = %d, want 0", phi[2])
	}
}

func mustRanks(t *testing.T, s string) []byte {
	t.Helper()
	out := make([]byte, len(s))
	for i := range s {
		switch s[i] {
		case 'a':
			out[i] = 1
		case 'c':
			out[i] = 2
		case 'g':
			out[i] = 3
		case 't':
			out[i] = 4
		default:
			t.Fatalf("bad char %q", s[i])
		}
	}
	return out
}

func TestPhiEmptyishInputs(t *testing.T) {
	text := []byte{1, 2, 3}
	s, _ := NewSearcher(text, fmindex.DefaultOptions())
	phi, _ := s.computePhi(NewScratch(), []byte{4})
	if !bytes.Equal(intsToBytes(phi), []byte{1, 0}) {
		t.Fatalf("phi for absent single char = %v", phi)
	}
}

func intsToBytes(in []int) []byte {
	out := make([]byte, len(in))
	for i, v := range in {
		out[i] = byte(v)
	}
	return out
}

// fuzzRanks maps fuzzer bytes onto bases: a, c, g, t (either case) keep
// their meaning and any other byte b becomes base 1 + b%4.
func fuzzRanks(in []byte, limit int) []byte {
	out := make([]byte, min(len(in), limit))
	for i := range out {
		switch in[i] | 0x20 {
		case 'a':
			out[i] = 1
		case 'c':
			out[i] = 2
		case 'g':
			out[i] = 3
		case 't':
			out[i] = 4
		default:
			out[i] = 1 + in[i]%4
		}
	}
	return out
}

// FuzzComputePhi checks the breakpoint computation against φ's
// definition (naivePhi) on arbitrary text/pattern pairs.
func FuzzComputePhi(f *testing.F) {
	f.Add([]byte("acagaca"), []byte("tcaca")) // §IV-A example
	f.Add([]byte("acagaca"), []byte("acagacat"))
	f.Add([]byte("aaaaaaaaaaaaaaaaaaaa"), []byte("aaataaaacaaaagaaaa"))
	f.Add([]byte("acgtacgtacgtacgt"), []byte("t"))
	f.Fuzz(func(t *testing.T, rawText, rawPattern []byte) {
		text, pattern := fuzzRanks(rawText, 512), fuzzRanks(rawPattern, 64)
		if len(text) == 0 {
			return
		}
		s, err := NewSearcher(text, fmindex.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, _ := s.computePhi(NewScratch(), pattern)
		if want := naivePhi(text, pattern); !slices.Equal(got, want) {
			t.Fatalf("phi %v, want %v (text %v, pattern %v)", got, want, text, pattern)
		}
	})
}
