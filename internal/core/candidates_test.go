package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// candidatesScan is the offset scan Candidates replaced, kept as the
// differential oracle: it visits every aligned offset and checks its
// full windows with Bitset.AllSet.
func candidatesScan(hits HitBitmaps, dbBits, yBits, alignBits int) []int {
	bmAt := make([]*Bitset, yBits)
	live := 0
	for res, bm := range hits {
		if res >= 0 && res < yBits && !bm.None() {
			bmAt[res] = bm
			live++
		}
	}
	if live == 0 {
		return nil
	}
	var out []int
	for o := 0; o+yBits <= dbBits; o += alignBits {
		bm := bmAt[o%yBits]
		if bm == nil {
			continue
		}
		w0, w1 := FullWindows(o, yBits)
		if w1 == w0 {
			continue
		}
		if bm.AllSet(w0, w1) {
			out = append(out, o)
		}
	}
	return out
}

// randomHits builds one bitmap per reachable residue of a y-bit query at
// the given alignment, plus decoy keys (-1 and >= y) that both
// implementations must ignore. Bits are set independently with
// probability density; runs of set windows are planted too, so dense
// and sparse cases both produce candidates.
func randomHits(r *rand.Rand, dbBits, yBits, alignBits int, density float64) HitBitmaps {
	// Engines size bitmaps from the chunk count (>= dbBits/16); cover
	// bitmaps both shorter and longer than the database.
	n := max(1, (dbBits+SegmentBits-1)/SegmentBits+r.Intn(80)-8)
	hits := HitBitmaps{}
	g := gcd(yBits, alignBits)
	for res := 0; res < yBits; res += g {
		bm := NewBitset(n)
		for i := 0; i < n; i++ {
			if r.Float64() < density {
				bm.Set(i)
			}
		}
		for runs := r.Intn(3); runs > 0; runs-- {
			start := r.Intn(n)
			for i := start; i < min(n, start+yBits/SegmentBits+1); i++ {
				bm.Set(i)
			}
		}
		hits[res] = bm
	}
	for _, res := range []int{-1, yBits, yBits + 1 + r.Intn(5)} {
		bm := NewBitset(n)
		for i := 0; i < n; i++ {
			bm.Set(i)
		}
		hits[res] = bm
	}
	return hits
}

// TestCandidatesMatchesScan is the randomized differential test of the
// set-bit-driven walk against the offset scan.
func TestCandidatesMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	densities := []float64{0.001, 0.01, 0.05, 0.2, 0.5, 0.9, 1}
	for trial := 0; trial < 600; trial++ {
		align := 1 + r.Intn(16)
		y := 8 + r.Intn(60)
		dbBits := 1 + r.Intn(4000) // mostly not a multiple of 16
		density := densities[trial%len(densities)]
		hits := randomHits(r, dbBits, y, align, density)
		got := Candidates(hits, dbBits, y, align)
		want := candidatesScan(hits, dbBits, y, align)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("dbBits=%d y=%d align=%d density=%g: got %v, want %v",
				dbBits, y, align, density, got, want)
		}
	}
}

// TestCandidatesRejectsNonPositiveAlign pins that a zero or negative
// alignment yields no candidates instead of looping or panicking.
func TestCandidatesRejectsNonPositiveAlign(t *testing.T) {
	hits := HitBitmaps{0: NewBitset(64)}
	for i := 0; i < 64; i++ {
		hits[0].Set(i)
	}
	for _, align := range []int{0, -8} {
		if got := Candidates(hits, 1024, 32, align); got != nil {
			t.Fatalf("align %d: got %v, want none", align, got)
		}
	}
}

// FuzzCandidates differentially fuzzes Candidates against the offset
// scan over bitmap contents, query length, alignment and database size.
func FuzzCandidates(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint8(32), uint8(8), uint8(3))
	f.Add(int64(2), uint16(1023), uint8(67), uint8(1), uint8(255))
	f.Add(int64(3), uint16(4001), uint8(8), uint8(16), uint8(0))
	f.Add(int64(4), uint16(15), uint8(9), uint8(3), uint8(128))
	f.Fuzz(func(t *testing.T, seed int64, dbBits uint16, y, align, density uint8) {
		yBits := 1 + int(y)%80
		alignBits := 1 + int(align)%32
		r := rand.New(rand.NewSource(seed))
		hits := randomHits(r, int(dbBits), yBits, alignBits, float64(density)/255)
		got := Candidates(hits, int(dbBits), yBits, alignBits)
		want := candidatesScan(hits, int(dbBits), yBits, alignBits)
		if !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("dbBits=%d y=%d align=%d: got %v, want %v", dbBits, yBits, alignBits, got, want)
		}
	})
}

// TestEngineCandidatesMatchScan checks the engines' own candidate lists
// against the offset scan over the hit bitmaps they returned, on the
// single-query and the batch path.
func TestEngineCandidatesMatchScan(t *testing.T) {
	cfg, edb, q, serial := engineFixture(t)
	check := func(label string, ir *IndexResult) {
		t.Helper()
		want := candidatesScan(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
		if !slices.Equal(ir.Candidates, want) {
			t.Fatalf("%s: candidates %v, offset scan %v", label, ir.Candidates, want)
		}
	}
	check("serial", serial)
	for _, spec := range []EngineSpec{{Kind: EnginePool, Workers: 2}, {Kind: EngineSerial, Shards: 2}} {
		eng, err := NewEngine(cfg.Params, edb, spec)
		if err != nil {
			t.Fatal(err)
		}
		bs := eng.(BatchSearcher)
		irs, err := bs.SearchAndIndexBatch(&BatchQuery{Queries: []*Query{q, q}})
		if err != nil {
			t.Fatalf("%s: %v", eng.Describe(), err)
		}
		for i, ir := range irs {
			check(fmt.Sprintf("%s batch member %d", eng.Describe(), i), ir)
		}
		if c, ok := eng.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}

// TestSearchRejectsNonPositiveAlign pins the typed rejection of a zero
// or negative alignment on every CPU engine, single and batch, before
// any arena work — with the offset scan, alignment 0 never returned.
func TestSearchRejectsNonPositiveAlign(t *testing.T) {
	cfg, edb, q, _ := engineFixture(t)
	for _, spec := range []EngineSpec{{Kind: EngineSerial}, {Kind: EnginePool, Workers: 2}, {Kind: EngineSerial, Shards: 2}} {
		eng, err := NewEngine(cfg.Params, edb, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, align := range []int{0, -8} {
			bad := *q
			bad.AlignBits = align
			done := make(chan [2]error, 1)
			go func() {
				_, single := eng.SearchAndIndex(&bad)
				_, batch := eng.(BatchSearcher).SearchAndIndexBatch(&BatchQuery{Queries: []*Query{q, &bad}})
				done <- [2]error{single, batch}
			}()
			select {
			case errs := <-done:
				for i, err := range errs {
					if !errors.Is(err, ErrInvalidAlign) {
						t.Fatalf("%s align=%d path %d: err %v, want ErrInvalidAlign", eng.Describe(), align, i, err)
					}
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s align=%d: search did not return", eng.Describe(), align)
			}
		}
		if c, ok := eng.(interface{ Close() error }); ok {
			c.Close()
		}
	}
}
