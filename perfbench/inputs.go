package main

import (
	"fmt"
	"math/rand"
	"slices"

	"bwtmatch"
	"bwtmatch/internal/alphabet"
	"bwtmatch/internal/bench"
	"bwtmatch/internal/dna"
	"bwtmatch/internal/naive"
)

const (
	// mapGenomeBases is the genome of map-* and serve-fleet: its default
	// index (~19 MiB) is ten times the 2 MiB L2 of one core.
	mapGenomeBases = 4 << 20
	// tenantBaseBases is the tenant-relative base genome.
	tenantBaseBases = 2 << 20
	readLen         = 100
	readErrorRate   = 0.02 // wgsim's default substitution rate
)

// derive gives each input stream of a run its own seed, all of them
// fixed by the workload seed.
func derive(seed int64, stream int64) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	return int64(x >> 1)
}

// genome generates the rank-encoded ratchr1-sim genome of the
// repository's Table 1 corpus (40% interspersed repeats, 3% tandem
// repeats) at the given length, from the corpus's own seed. The genome
// is the same for every workload seed: its repeat content sets the cost
// of a read, and a genome drawn per seed made that cost vary between
// seeds by more than the bounds the benchmark gates on. The workload
// seed draws everything else (reads, tenant edits, traffic mix).
func genome(bases int) ([]byte, error) {
	for _, spec := range bench.Specs(1) {
		if spec.Name != "ratchr1-sim" {
			continue
		}
		return dna.Generate(dna.GenomeConfig{
			Length:         bases,
			GC:             spec.GC,
			MarkovBias:     spec.MarkovBias,
			RepeatFraction: spec.Repeats,
			TandemFraction: spec.Tandems,
			Seed:           spec.Seed,
		})
	}
	return nil, fmt.Errorf("corpus spec ratchr1-sim not found")
}

// simRead is one simulated read with its provenance.
type simRead struct {
	seq    []byte // ASCII DNA, as a client sends it
	origin int    // start of the window it was drawn from
	errors int    // substitutions relative to that window
}

// simulate draws count wgsim-style reads from a rank-encoded genome.
func simulate(g []byte, count int, seed int64) ([]simRead, error) {
	rs, err := dna.Simulate(g, dna.ReadConfig{Length: readLen, Count: count, ErrorRate: readErrorRate, Seed: seed})
	if err != nil {
		return nil, err
	}
	out := make([]simRead, len(rs))
	for i, r := range rs {
		out[i] = simRead{seq: alphabet.Decode(r.Seq), origin: int(r.Pos), errors: r.Errors}
	}
	return out, nil
}

// mutate returns a copy of a rank-encoded genome with rate×len random
// substitutions: a tenant that diverges from its base.
func mutate(g []byte, rate float64, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := slices.Clone(g)
	for i := 0; i < int(float64(len(g))*rate); i++ {
		p := rng.Intn(len(out))
		// Ranks 1..4 are the bases; rotate to one of the other three.
		out[p] = byte((int(out[p])-1+1+rng.Intn(3))%4 + 1)
	}
	return out
}

// sample picks n distinct indexes below limit, fixed by seed.
func sample(limit, n int, seed int64) []int {
	if n > limit {
		n = limit
	}
	return rand.New(rand.NewSource(seed)).Perm(limit)[:n]
}

// verify checks one answer against the text it was searched in,
// independently of the index: every match must really sit at its
// position with the reported mismatch count (at most k), positions must
// be strictly increasing, and the window the read came from must be
// among them when the read has at most k errors. It returns "" when the
// answer passes.
func verify(text []byte, rd simRead, ms []bwtmatch.Match, k int) string {
	m := len(rd.seq)
	foundOrigin := false
	for i, mt := range ms {
		if mt.Pos < 0 || mt.Pos+m > len(text) || (i > 0 && mt.Pos <= ms[i-1].Pos) {
			return fmt.Sprintf("read at %d: match %d has position %d out of order or range", rd.origin, i, mt.Pos)
		}
		if d := naive.Hamming(text[mt.Pos:mt.Pos+m], rd.seq, k); d != mt.Mismatches || d > k {
			return fmt.Sprintf("read at %d: match at %d reports %d mismatches, text has %d (k=%d)", rd.origin, mt.Pos, mt.Mismatches, d, k)
		}
		foundOrigin = foundOrigin || mt.Pos == rd.origin
	}
	if rd.errors <= k && !foundOrigin {
		return fmt.Sprintf("read at %d with %d errors: origin missing from %d matches (k=%d)", rd.origin, rd.errors, len(ms), k)
	}
	return ""
}

// scanMatches is the reference answer by direct comparison at every
// text position (naive.Find, the repository's test oracle).
func scanMatches(text, seq []byte, k int) []bwtmatch.Match {
	var out []bwtmatch.Match
	for _, p := range naive.Find(text, seq, k) {
		out = append(out, bwtmatch.Match{Pos: int(p), Mismatches: naive.Hamming(text[p:int(p)+len(seq)], seq, k)})
	}
	return out
}

func sameMatches(a, b []bwtmatch.Match) error {
	if !slices.Equal(a, b) {
		n := min(len(a), len(b), 4)
		return fmt.Errorf("%d matches %v… want %d matches %v…", len(a), a[:n], len(b), b[:n])
	}
	return nil
}
