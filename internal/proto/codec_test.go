package proto

import (
	"runtime"
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
)

// forgedFactoredQuery builds a factored-query payload whose DBTok plane
// count (or, with rhs set, whose RHS count after an empty plane) claims
// count polynomials, followed by filler bytes of junk. The header's
// NumChunks agrees with the forged plane count, so only the section
// bound stands between the count and the plane allocation.
func forgedFactoredQuery(count, filler int, rhs bool) []byte {
	var b buffer
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	b.putInt(32) // YBits
	b.putInt(8)  // AlignBits
	b.putInt(1 << 20)
	if rhs {
		b.putInt(0) // NumChunks
		b.putInt(0) // residues
		b.putInt(0) // empty DBTok plane
	} else {
		b.putInt(count) // NumChunks
		b.putInt(0)     // residues
	}
	b.putInt(count)
	b.data = append(b.data, make([]byte, filler)...)
	return b.data
}

// TestFactoredDecodeBoundsForgedCounts pins the hostile-size guard of
// the one-allocation decode: the DBTok and RHS sections are allocated
// whole before they are read, so a forged count that a per-word bound
// (8 bytes per element) would accept must be refused before the
// allocation — here it would have bought 1024× the payload in heap.
func TestFactoredDecodeBoundsForgedCounts(t *testing.T) {
	p := bfv.ParamsPaper()
	const filler = 64 << 10
	for _, rhs := range []bool{false, true} {
		payload := forgedFactoredQuery(filler/8, filler, rhs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeQuery(payload, p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("rhs=%v: forged section count accepted", rhs)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("rhs=%v: rejecting a %d-byte payload allocated %d bytes", rhs, len(payload), grew)
		}
	}
}

// allocFixtureQuery prepares a factored 32-bit query at align 8 against
// a database of the given chunk count under the toy parameters. The
// phase count (one RHS per residue) does not depend on the chunk count,
// so only the DBTok plane grows with it.
func allocFixtureQuery(tb testing.TB, p bfv.Params, chunks int) *core.Query {
	tb.Helper()
	client, err := core.NewClient(core.Config{Params: p, AlignBits: 8, Mode: core.ModeSeededMatch}, rng.NewSourceFromString("alloc-pin"))
	if err != nil {
		tb.Fatal(err)
	}
	q, err := client.PrepareQuery([]byte{0xFE, 0xED, 0xFA, 0xCE}, 32, chunks*p.N*core.SegmentBits)
	if err != nil {
		tb.Fatal(err)
	}
	if q.NumChunks != chunks {
		tb.Fatalf("prepared %d chunks, want %d", q.NumChunks, chunks)
	}
	return q
}

// TestDecodeQueryAllocsFlatInChunks pins that decoding a factored query
// costs the same number of allocations at 2 and at 64 chunks: the DBTok
// plane and the RHS polynomials are carved from one backing array each.
func TestDecodeQueryAllocsFlatInChunks(t *testing.T) {
	p := bfv.ParamsToy()
	allocs := map[int]float64{}
	for _, chunks := range []int{2, 64} {
		q := allocFixtureQuery(t, p, chunks)
		if len(q.RHS) != 4 {
			t.Fatalf("%d chunks: %d RHS phases, want 4", chunks, len(q.RHS))
		}
		enc := EncodeQuery(q, p)
		allocs[chunks] = testing.AllocsPerRun(50, func() {
			if _, err := DecodeQuery(enc, p); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("DecodeQuery allocations: %v at 2 chunks, %v at 64", allocs[2], allocs[64])
	if allocs[2] != allocs[64] {
		t.Fatalf("DecodeQuery allocations grow with the chunk count: %v at 2 chunks, %v at 64", allocs[2], allocs[64])
	}
}

// TestEncodeNamedQueryOneAlloc pins the encoder to a single allocation:
// the payload is sized exactly up front and the name and the query are
// written into it directly.
func TestEncodeNamedQueryOneAlloc(t *testing.T) {
	p := bfv.ParamsToy()
	q := allocFixtureQuery(t, p, 64)
	var enc []byte
	allocs := testing.AllocsPerRun(50, func() {
		enc = EncodeNamedQuery("genome", q, p)
	})
	if allocs != 1 {
		t.Fatalf("EncodeNamedQuery made %v allocations, want 1", allocs)
	}
	if len(enc) != cap(enc) {
		t.Fatalf("payload sized %d, wrote %d: size computation is off", cap(enc), len(enc))
	}
	name, back, err := DecodeNamedQuery(enc, p)
	if err != nil || name != "genome" {
		t.Fatalf("round trip: name %q, err %v", name, err)
	}
	if got := EncodeQuery(back, p); string(got) != string(enc[4+len(name):]) {
		t.Fatal("named encoding does not embed EncodeQuery's bytes")
	}
	// The legacy expanded-token form is sized exactly as well.
	legacy := EncodeQuery(fuzzSeedLegacyQuery(t, p), p)
	if len(legacy) != cap(legacy) {
		t.Fatalf("legacy payload sized %d, wrote %d", cap(legacy), len(legacy))
	}
}
