// Batch wire messages: MsgBatchQuery carries N independent queries
// against one named database in a single request, and MsgBatchResult
// returns the per-member candidate lists. Heavy payload travels through
// shared pools on the wire: pattern ciphertexts (legacy members) and
// token polynomials / DBTok planes (factored members) are deduplicated
// by content — each distinct object travels once and members reference
// it by pool index. Dedup keys are encoded bytes, which is sound
// because the encoders are deterministic (maps are emitted in sorted
// key order). Decoding shares pool entries by pointer, so the
// server-side batch kernels get their pointer-identity reuse for free:
// members prepared by the same client against the same database share
// one DBTok plane on the wire AND one chunk stream in the kernel.

package proto

import (
	"fmt"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/ring"
)

// EncodeNamedBatchQuery frames a batch of queries addressed to a named
// database. Batches whose members are all legacy-encoded keep the
// original (pre-factoring) layout byte for byte; a batch with any
// factored member uses the versioned factored layout, whose poly pool
// dedups DBTok planes and RHS polynomials across members.
func EncodeNamedBatchQuery(name string, bq *core.BatchQuery, p bfv.Params) []byte {
	for _, q := range bq.Queries {
		if q.Factored() {
			return encodeFactoredBatch(name, bq, p)
		}
	}
	return encodeLegacyBatch(name, bq, p)
}

// encodeLegacyBatch is the pre-factoring layout: name, pattern pool,
// then per-member metadata with pool references and inline match
// tokens.
func encodeLegacyBatch(name string, bq *core.BatchQuery, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	qb := p.QBytes()

	// Build the pattern pool in first-appearance order (members in input
	// order, phases sorted), so the batch encoding is as deterministic as
	// the single-query one.
	poolIndex := make(map[string]int)
	var pool []string // encoded ciphertexts
	memberRefs := make([]map[int]int, len(bq.Queries))
	for mi, q := range bq.Queries {
		memberRefs[mi] = make(map[int]int, len(q.Patterns))
		for _, psi := range sortedKeys(q.Patterns) {
			var cb buffer
			cb.putCiphertext(q.Patterns[psi], qb)
			key := string(cb.data)
			idx, ok := poolIndex[key]
			if !ok {
				idx = len(pool)
				poolIndex[key] = idx
				pool = append(pool, key)
			}
			memberRefs[mi][psi] = idx
		}
	}
	b.putInt(len(pool))
	for _, enc := range pool {
		b.data = append(b.data, enc...)
	}

	b.putInt(len(bq.Queries))
	for mi, q := range bq.Queries {
		b.putInt(q.YBits)
		b.putInt(q.AlignBits)
		b.putInt(q.DBBitLen)
		b.putInt(q.NumChunks)
		b.putInt(len(q.Residues))
		for _, r := range q.Residues {
			b.putInt(r)
		}
		b.putInt(len(q.Patterns))
		for _, psi := range sortedKeys(q.Patterns) {
			b.putInt(psi)
			b.putInt(memberRefs[mi][psi])
		}
		b.putInt(len(q.Tokens))
		for _, res := range sortedKeys(q.Tokens) {
			toks := q.Tokens[res]
			b.putInt(res)
			b.putInt(len(toks))
			for _, tok := range toks {
				b.putPoly(tok, qb)
			}
		}
	}
	return b.data
}

// Member token kinds of the factored batch layout.
const (
	batchTokNone     = 0 // no match tokens (client-decrypt member)
	batchTokLegacy   = 1 // inline expanded Tokens
	batchTokFactored = 2 // DBTok plane index + RHS poly-pool references
)

// encodeFactoredBatch is the versioned layout: name, sentinel, version,
// pattern-ciphertext pool, polynomial pool, DBTok plane pool (index
// lists into the polynomial pool), then members. Factored members
// reference their DBTok plane by pool index — a batch of queries from
// one client against one database ships the plane exactly once.
func encodeFactoredBatch(name string, bq *core.BatchQuery, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	b.putUint32(factoredSentinel)
	b.putInt(factoredWireVersion)
	qb := p.QBytes()

	// Pattern-ciphertext pool (legacy members of a mixed batch).
	ctIndex := make(map[string]int)
	var ctPool []string
	patternRef := func(ct *bfv.Ciphertext) int {
		var cb buffer
		cb.putCiphertext(ct, qb)
		key := string(cb.data)
		idx, ok := ctIndex[key]
		if !ok {
			idx = len(ctPool)
			ctIndex[key] = idx
			ctPool = append(ctPool, key)
		}
		return idx
	}
	// Polynomial pool (DBTok plane members and RHS comparands).
	polyIndex := make(map[string]int)
	var polyPool []string
	polyRef := func(poly ring.Poly) int {
		var pb buffer
		pb.putPoly(poly, qb)
		key := string(pb.data)
		idx, ok := polyIndex[key]
		if !ok {
			idx = len(polyPool)
			polyIndex[key] = idx
			polyPool = append(polyPool, key)
		}
		return idx
	}
	// DBTok plane pool: a plane is its chunk-ordered poly-index list.
	planeIndex := make(map[string]int)
	var planePool [][]int
	planeRef := func(plane []ring.Poly) int {
		refs := make([]int, len(plane))
		var kb buffer
		for i, poly := range plane {
			refs[i] = polyRef(poly)
			kb.putInt(refs[i])
		}
		key := string(kb.data)
		idx, ok := planeIndex[key]
		if !ok {
			idx = len(planePool)
			planeIndex[key] = idx
			planePool = append(planePool, refs)
		}
		return idx
	}

	// First pass populates the pools in first-appearance order so the
	// encoding is deterministic; member sections are built alongside.
	var members buffer
	for _, q := range bq.Queries {
		members.putInt(q.YBits)
		members.putInt(q.AlignBits)
		members.putInt(q.DBBitLen)
		members.putInt(q.NumChunks)
		members.putInt(len(q.Residues))
		for _, r := range q.Residues {
			members.putInt(r)
		}
		switch {
		case q.Factored():
			// Factored members ship no patterns (the fused kernels run
			// on DBTok/RHS alone), mirroring the single-query encoding.
			members.putInt(0)
			members.putInt(batchTokFactored)
			members.putInt(planeRef(q.DBTok))
			members.putInt(len(q.RHS))
			for _, psi := range sortedKeys(q.RHS) {
				members.putInt(psi)
				members.putInt(polyRef(q.RHS[psi]))
			}
		default:
			members.putInt(len(q.Patterns))
			for _, psi := range sortedKeys(q.Patterns) {
				members.putInt(psi)
				members.putInt(patternRef(q.Patterns[psi]))
			}
			if q.Tokens == nil {
				members.putInt(batchTokNone)
				break
			}
			members.putInt(batchTokLegacy)
			members.putInt(len(q.Tokens))
			for _, res := range sortedKeys(q.Tokens) {
				toks := q.Tokens[res]
				members.putInt(res)
				members.putInt(len(toks))
				for _, tok := range toks {
					members.putPoly(tok, qb)
				}
			}
		}
	}

	b.putInt(len(ctPool))
	for _, enc := range ctPool {
		b.data = append(b.data, enc...)
	}
	b.putInt(len(polyPool))
	for _, enc := range polyPool {
		b.data = append(b.data, enc...)
	}
	b.putInt(len(planePool))
	for _, refs := range planePool {
		b.putInt(len(refs))
		for _, ref := range refs {
			b.putInt(ref)
		}
	}
	b.putInt(len(bq.Queries))
	b.data = append(b.data, members.data...)
	return b.data
}

// DecodeNamedBatchQuery is the inverse of EncodeNamedBatchQuery: it
// accepts both layouts. Members referencing the same pool entry share
// one object — pattern ciphertexts, RHS polynomials and whole DBTok
// planes come back pointer-shared, which is exactly the identity the
// batch kernels key their per-chunk evaluation reuse on.
func DecodeNamedBatchQuery(data []byte, p bfv.Params) (string, *core.BatchQuery, error) {
	b := buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	mark := b.off
	first, err := b.uint32()
	if err != nil {
		return "", nil, err
	}
	if first == factoredSentinel {
		bq, err := decodeFactoredBatch(&b, p)
		return name, bq, err
	}
	b.off = mark
	bq, err := decodeLegacyBatch(&b, p)
	return name, bq, err
}

func decodeLegacyBatch(b *buffer, p bfv.Params) (*core.BatchQuery, error) {
	qb := p.QBytes()
	npool, err := b.count(8) // a ciphertext encodes at least two length words
	if err != nil {
		return nil, err
	}
	pool := make([]*bfv.Ciphertext, npool)
	for i := range pool {
		if pool[i], err = b.ciphertext(qb, p.N); err != nil {
			return nil, err
		}
	}
	nmem, err := b.count(28) // seven 4-byte words minimum per member
	if err != nil {
		return nil, err
	}
	queries := make([]*core.Query, nmem)
	for mi := range queries {
		q := &core.Query{}
		if q.YBits, err = b.int(); err != nil {
			return nil, err
		}
		if err := decodeQueryHeader(b, q); err != nil {
			return nil, err
		}
		if q.Patterns, err = decodePatternRefs(b, pool, mi); err != nil {
			return nil, err
		}
		if q.Tokens, err = decodeInlineTokens(b, qb, p.N); err != nil {
			return nil, err
		}
		queries[mi] = q
	}
	bq := &core.BatchQuery{Queries: queries}
	// Patterns are already pointer-shared through the wire pool, but
	// tokens decode per member; canonicalise them so the batch kernel's
	// evaluation-class dedup works on wire-decoded batches too.
	bq.DedupTokens()
	return bq, nil
}

// decodeFactoredBatch parses the versioned layout after the sentinel.
func decodeFactoredBatch(b *buffer, p bfv.Params) (*core.BatchQuery, error) {
	version, err := b.int()
	if err != nil {
		return nil, err
	}
	if version != factoredWireVersion {
		return nil, fmt.Errorf("proto: unsupported factored batch version %d", version)
	}
	qb := p.QBytes()
	nct, err := b.count(8)
	if err != nil {
		return nil, err
	}
	ctPool := make([]*bfv.Ciphertext, nct)
	for i := range ctPool {
		if ctPool[i], err = b.ciphertext(qb, p.N); err != nil {
			return nil, err
		}
	}
	npoly, err := b.count(polyWireBytes(p.N, qb)) // carved up front: bound per poly
	if err != nil {
		return nil, err
	}
	polyPool := carvePolys(npoly, p.N)
	for _, poly := range polyPool {
		if err := b.polyInto(poly, qb); err != nil {
			return nil, err
		}
	}
	nplane, err := b.count(4)
	if err != nil {
		return nil, err
	}
	planePool := make([][]ring.Poly, nplane)
	for i := range planePool {
		cnt, err := b.count(4)
		if err != nil {
			return nil, err
		}
		plane := make([]ring.Poly, cnt)
		for j := range plane {
			idx, err := b.int()
			if err != nil {
				return nil, err
			}
			if idx < 0 || idx >= len(polyPool) {
				return nil, fmt.Errorf("proto: batch plane %d references poly pool entry %d of %d", i, idx, len(polyPool))
			}
			plane[j] = polyPool[idx]
		}
		planePool[i] = plane
	}
	nmem, err := b.count(28) // seven 4-byte words minimum per member
	if err != nil {
		return nil, err
	}
	queries := make([]*core.Query, nmem)
	for mi := range queries {
		q := &core.Query{}
		if q.YBits, err = b.int(); err != nil {
			return nil, err
		}
		if err := decodeQueryHeader(b, q); err != nil {
			return nil, err
		}
		if q.Patterns, err = decodePatternRefs(b, ctPool, mi); err != nil {
			return nil, err
		}
		kind, err := b.int()
		if err != nil {
			return nil, err
		}
		switch kind {
		case batchTokNone:
		case batchTokLegacy:
			if q.Tokens, err = decodeInlineTokens(b, qb, p.N); err != nil {
				return nil, err
			}
		case batchTokFactored:
			planeIdx, err := b.int()
			if err != nil {
				return nil, err
			}
			if planeIdx < 0 || planeIdx >= len(planePool) {
				return nil, fmt.Errorf("proto: batch member %d references DBTok plane %d of %d", mi, planeIdx, len(planePool))
			}
			plane := planePool[planeIdx]
			if len(plane) != q.NumChunks {
				return nil, fmt.Errorf("proto: batch member %d DBTok plane has %d chunks, header says %d", mi, len(plane), q.NumChunks)
			}
			q.DBTok = plane
			nrhs, err := b.count(8) // psi word + pool-index word
			if err != nil {
				return nil, err
			}
			q.RHS = make(map[int]ring.Poly, nrhs)
			for i := 0; i < nrhs; i++ {
				psi, err := b.int()
				if err != nil {
					return nil, err
				}
				idx, err := b.int()
				if err != nil {
					return nil, err
				}
				if idx < 0 || idx >= len(polyPool) {
					return nil, fmt.Errorf("proto: batch member %d references poly pool entry %d of %d", mi, idx, len(polyPool))
				}
				q.RHS[psi] = polyPool[idx]
			}
		default:
			return nil, fmt.Errorf("proto: batch member %d has unknown token kind %d", mi, kind)
		}
		queries[mi] = q
	}
	bq := &core.BatchQuery{Queries: queries}
	// Factored pools share by pointer already; legacy members of a
	// mixed batch still need their inline tokens canonicalised.
	bq.DedupTokens()
	return bq, nil
}

// EncodeBatchResult serialises per-member candidate offsets, in member
// order. Like EncodeResult, it rejects offsets the 4-byte encoding
// cannot represent.
func EncodeBatchResult(results [][]int) ([]byte, error) {
	var b buffer
	b.putInt(len(results))
	for mi, candidates := range results {
		if err := b.putCandidates(candidates); err != nil {
			return nil, fmt.Errorf("proto: batch member %d: %w", mi, err)
		}
	}
	return b.data, nil
}

// DecodeBatchResult is the inverse of EncodeBatchResult.
func DecodeBatchResult(data []byte) ([][]int, error) {
	b := buffer{data: data}
	n, err := b.count(4) // one count word minimum per member
	if err != nil {
		return nil, err
	}
	out := make([][]int, n)
	for i := range out {
		if out[i], err = b.candidates(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
