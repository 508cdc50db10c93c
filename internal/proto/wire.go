// Package proto implements a length-prefixed binary wire protocol for the
// CIPHERMATCH client-server deployment (§2.2): the client uploads its
// packed, encrypted database once, then each search is a single
// request/response round — the low-communication-complexity property HE
// affords over garbled-circuit or MPC approaches.
//
// Wire format: every message is 1 type byte + 4-byte little-endian payload
// length + payload. Ciphertext coefficients travel as ceil(log2 q / 8)-byte
// little-endian integers, so wire sizes match the paper's footprint
// accounting.
package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/ring"
)

// Message types. MsgUploadDB and MsgQuery address a named database, so
// one server process serves many tenants; MsgListDBs/MsgDropDB manage
// the namespace.
const (
	MsgUploadDB    byte = 1 // name + engine spec + database -> MsgAck
	MsgQuery       byte = 2 // name + query -> MsgResult
	MsgResult      byte = 3
	MsgError       byte = 4
	MsgAck         byte = 5
	MsgListDBs     byte = 6 // empty -> MsgDBList
	MsgDBList      byte = 7
	MsgDropDB      byte = 8 // name -> MsgAck
	MsgBatchQuery  byte = 9 // name + batch of queries -> MsgBatchResult
	MsgBatchResult byte = 10
	MsgStats       byte = 11 // empty -> MsgStatsResult (serving-metrics snapshot)
	MsgStatsResult byte = 12
	// MsgOverloaded is the typed admission-control rejection: the
	// addressed database's coalescing queue is at its depth cap (or the
	// server is shutting down), so the query was refused *before* any
	// work — retry with backoff. Distinct from MsgError so clients can
	// tell transient overload from a request that will never succeed.
	MsgOverloaded byte = 13
	// MsgServerError reports an internal server fault — a recovered
	// handler panic, or storage corruption detected mid-request. The
	// request did not produce a (possibly wrong) answer and the fault is
	// on the server side, not in the request: clients surface it as
	// ErrServerFault. The connection stays usable.
	MsgServerError byte = 14
	// MsgTraceDump requests completed request traces from the server's
	// flight-recorder rings (max count + slow-only selector) ->
	// MsgTraceDumpResult. Old servers answer with MsgError (unknown
	// message type), which clients surface as "tracing unsupported".
	MsgTraceDump       byte = 15
	MsgTraceDumpResult byte = 16
)

// ErrConnTruncated is the typed decode-path error for a connection or
// payload that ended mid-message: the peer vanished (or a fault dropped
// the connection) partway through a frame, or a frame's payload is
// shorter than its own structure promises. Transient from a client's
// point of view — queries are read-only, so reconnect-and-retry is
// always safe.
var ErrConnTruncated = errors.New("proto: connection truncated mid-message")

// ErrServerFault is the typed client-side form of MsgServerError: the
// server hit an internal fault (recovered panic, storage corruption)
// answering the request. Safe to retry read-only requests.
var ErrServerFault = errors.New("proto: server internal fault")

// errShortPayload is the buffer decoders' truncation error: a payload
// shorter than its declared structure. errors.Is(err, ErrConnTruncated).
var errShortPayload = fmt.Errorf("%w: payload short read", ErrConnTruncated)

// MaxNameLen bounds database names on the wire.
const MaxNameLen = 255

// Bounds on what a remote upload may request: a forged spec must not
// spawn unbounded goroutines or simulated drives server-side, and the
// store must not grow without limit. MaxUploadWorkers bounds the
// *total* worker count (workers × shards, with 0 workers counted as
// GOMAXPROCS); MaxUploadShards bounds per-database engines (each SSD
// shard is a full simulated drive); MaxStoredDBs bounds the namespace.
const (
	MaxUploadWorkers = 1024
	MaxUploadShards  = 64
	MaxStoredDBs     = 64
)

// MaxPayload bounds a single message (1 GiB) to keep a malformed peer from
// forcing huge allocations.
const MaxPayload = 1 << 30

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, msgType byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("proto: payload of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = msgType
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadMessage reads one framed message. A clean close between messages
// returns io.EOF untouched (the peer simply hung up); any end-of-stream
// or short read *inside* a frame — partial header, partial payload —
// wraps ErrConnTruncated, so callers can type-switch a torn connection
// without matching on io error identities.
func ReadMessage(r io.Reader) (msgType byte, payload []byte, err error) {
	var hdr [5]byte
	if n, err := io.ReadFull(r, hdr[:]); err != nil {
		if n > 0 || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, fmt.Errorf("%w: header after %d bytes: %v", ErrConnTruncated, n, err)
		}
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("proto: payload of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if m, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: payload after %d of %d bytes: %v", ErrConnTruncated, m, n, err)
	}
	return hdr[0], payload, nil
}

// buffer is a simple append/consume byte cursor.
type buffer struct {
	data []byte
	off  int
}

func (b *buffer) putUint32(v uint32) {
	b.data = binary.LittleEndian.AppendUint32(b.data, v)
}

func (b *buffer) putInt(v int) { b.putUint32(uint32(v)) }

func (b *buffer) putUint64(v uint64) {
	b.data = binary.LittleEndian.AppendUint64(b.data, v)
}

func (b *buffer) uint64() (uint64, error) {
	if b.off+8 > len(b.data) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint64(b.data[b.off:])
	b.off += 8
	return v, nil
}

func (b *buffer) uint32() (uint32, error) {
	if b.off+4 > len(b.data) {
		return 0, errShortPayload
	}
	v := binary.LittleEndian.Uint32(b.data[b.off:])
	b.off += 4
	return v, nil
}

func (b *buffer) int() (int, error) {
	v, err := b.uint32()
	return int(v), err
}

func (b *buffer) putString(s string) {
	b.putInt(len(s))
	b.data = append(b.data, s...)
}

func (b *buffer) string() (string, error) {
	n, err := b.count(1)
	if err != nil {
		return "", err
	}
	if b.off+n > len(b.data) {
		return "", errShortPayload
	}
	s := string(b.data[b.off : b.off+n])
	b.off += n
	return s, nil
}

// count reads an element count and validates it against the remaining
// payload (each element encodes at least minElemBytes), so forged counts
// cannot force huge allocations. The bound is compared via division:
// n*minElemBytes can overflow int on 32-bit platforms, which would let a
// forged count slip past a multiplication-based check.
func (b *buffer) count(minElemBytes int) (int, error) {
	n, err := b.int()
	if err != nil {
		return 0, err
	}
	remaining := len(b.data) - b.off
	if n < 0 || n > remaining/minElemBytes {
		return 0, fmt.Errorf("proto: count %d exceeds remaining payload %d", n, remaining)
	}
	return n, nil
}

// putPoly appends a polynomial as qBytes-wide little-endian coefficients
// (the low qBytes bytes of each coefficient).
func (b *buffer) putPoly(p ring.Poly, qBytes int) {
	b.putInt(len(p))
	switch qBytes {
	case 4:
		for _, c := range p {
			b.data = binary.LittleEndian.AppendUint32(b.data, uint32(c))
		}
	case 8:
		for _, c := range p {
			b.data = binary.LittleEndian.AppendUint64(b.data, c)
		}
	default:
		for _, c := range p {
			for k := 0; k < qBytes; k++ {
				b.data = append(b.data, byte(c>>(8*k)))
			}
		}
	}
}

// polyWireBytes is the encoded size of a degree-n polynomial: its length
// word plus n qBytes-wide coefficients.
func polyWireBytes(n, qBytes int) int { return 4 + n*qBytes }

// poly decodes a polynomial and enforces that it has exactly degree
// coefficients: every polynomial on this wire (chunk and pattern
// ciphertext components, match tokens) is a ring element of the
// session's parameter set, and the search kernels size their loops and
// bitset writes from these lengths, so a peer must not be able to
// smuggle in oversized polynomials.
func (b *buffer) poly(qBytes, degree int) (ring.Poly, error) {
	out := make(ring.Poly, degree)
	if err := b.polyInto(out, qBytes); err != nil {
		return nil, err
	}
	return out, nil
}

// polyInto decodes a polynomial into dst, whose length fixes the
// expected coefficient count. The 4- and 8-byte widths (every preset
// modulus) read coefficients straight out of the payload.
func (b *buffer) polyInto(dst ring.Poly, qBytes int) error {
	n, err := b.count(qBytes)
	if err != nil {
		return err
	}
	if n != len(dst) {
		return fmt.Errorf("proto: polynomial has %d coefficients, ring degree is %d", n, len(dst))
	}
	need := n * qBytes
	if b.off+need > len(b.data) {
		return errShortPayload
	}
	src := b.data[b.off : b.off+need]
	switch qBytes {
	case 4:
		for i := range dst {
			dst[i] = uint64(binary.LittleEndian.Uint32(src[4*i:]))
		}
	case 8:
		for i := range dst {
			dst[i] = binary.LittleEndian.Uint64(src[8*i:])
		}
	default:
		for i := range dst {
			var c uint64
			for k := qBytes - 1; k >= 0; k-- {
				c = c<<8 | uint64(src[i*qBytes+k])
			}
			dst[i] = c
		}
	}
	b.off += need
	return nil
}

// carvePolys returns count degree-length polynomials carved from one
// backing array, the way core.AdoptArena carves chunks: one allocation
// for the whole section instead of one per polynomial. Each poly is
// capacity-limited, so an append on one can never run into the next.
// Because the whole section is allocated before any of it is read,
// callers must bound count by the full encoded size of an element
// (polyWireBytes plus any per-element words), never by its length word
// alone: a forged count in a short payload must not buy an allocation
// N× the payload's size.
func carvePolys(count, degree int) []ring.Poly {
	backing := make([]uint64, count*degree)
	out := make([]ring.Poly, count)
	for i := range out {
		out[i] = backing[i*degree : (i+1)*degree : (i+1)*degree]
	}
	return out
}

func (b *buffer) putCiphertext(ct *bfv.Ciphertext, qBytes int) {
	b.putInt(len(ct.C))
	for _, p := range ct.C {
		b.putPoly(p, qBytes)
	}
}

func (b *buffer) ciphertext(qBytes, degree int) (*bfv.Ciphertext, error) {
	n, err := b.int()
	if err != nil {
		return nil, err
	}
	if n < 1 || n > 3 {
		return nil, fmt.Errorf("proto: ciphertext with %d components", n)
	}
	ct := &bfv.Ciphertext{C: make([]ring.Poly, n)}
	for i := range ct.C {
		if ct.C[i], err = b.poly(qBytes, degree); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// EncodeDB serialises an encrypted database.
func EncodeDB(db *core.EncryptedDB, p bfv.Params) []byte {
	var b buffer
	b.putInt(db.BitLen)
	b.putInt(db.NumSegments)
	b.putInt(len(db.Chunks))
	qb := p.QBytes()
	for _, ct := range db.Chunks {
		b.putCiphertext(ct, qb)
	}
	return b.data
}

// DecodeDB is the inverse of EncodeDB. Chunk coefficients decode
// directly into the contiguous search arena (the chunk count precedes
// the chunks), so an upload never holds loose per-chunk polynomials
// and the arena at the same time — peak memory is one copy of the
// database. Database chunks must be fresh 2-component ciphertexts,
// which is all EncodeDB ever produces.
func DecodeDB(data []byte, p bfv.Params) (*core.EncryptedDB, error) {
	b := buffer{data: data}
	bitLen, err := b.int()
	if err != nil {
		return nil, err
	}
	numSegments, err := b.int()
	if err != nil {
		return nil, err
	}
	qb := p.QBytes()
	// NewCompactDB allocates the full 2·n·N·qb arena up front, so the
	// chunk count must be bounded by what the payload can actually
	// carry: each chunk encodes a component-count word plus two
	// components of a 4-byte length and N·qb coefficient bytes. The old
	// bound of 8 bytes/chunk let a short hostile payload demand a
	// multi-terabyte arena (count×N amplification); found while
	// annotating the decoders for cmvet's wiresize analyzer.
	minChunkBytes := 4 + 2*(4+p.N*qb)
	n, err := b.count(minChunkBytes)
	if err != nil {
		return nil, err
	}
	db := core.NewCompactDB(p.N, n)
	db.BitLen = bitLen
	db.NumSegments = numSegments
	for i := range db.Chunks {
		ncomp, err := b.int()
		if err != nil {
			return nil, err
		}
		if ncomp != 2 {
			return nil, fmt.Errorf("proto: database chunk %d has %d components, want 2", i, ncomp)
		}
		for c := 0; c < 2; c++ {
			if err := b.polyInto(db.Chunks[i].C[c], qb); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// sortedKeys returns a map's integer keys in ascending order, so map
// iteration order never leaks into wire bytes.
func sortedKeys[V any](m map[int]V) []int {
	return appendSortedKeys(make([]int, 0, len(m)), m)
}

// appendSortedKeys is sortedKeys into caller-provided storage: the query
// encoder passes a stack array, so a query with few phases sorts its
// keys without a heap allocation.
func appendSortedKeys[V any](dst []int, m map[int]V) []int {
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}

// factoredSentinel marks the versioned factored encodings of MsgQuery
// and MsgBatchQuery. It occupies the slot a legacy decoder reads as
// YBits (query) or as the pattern-pool count (batch); both reject it —
// YBits fails validation and the count check refuses ~2^32 — so a
// pre-factoring server errors out cleanly instead of misparsing, while
// legacy encodings (whose first word can never be the sentinel) still
// decode everywhere.
const factoredSentinel = ^uint32(0)

// factoredWireVersion is the current version word of the factored
// encodings; unknown versions are rejected, so the format can evolve.
const factoredWireVersion = 1

// EncodeQuery serialises a query. Map-backed sections are emitted in
// sorted key order, so the same query always encodes to the same bytes
// — the property batch-level deduplication and any caching keyed on
// encodings rely on.
//
// Factored queries use the versioned factored encoding: metadata, the
// DBTok plane and the per-phase RHS polynomials. Pattern ciphertexts
// are NOT shipped — seeded-match index generation runs entirely on
// DBTok/RHS — which is where the ≥2× query-size reduction over the
// legacy expanded-token encoding comes from (legacy ships patterns plus
// residues×chunks token polynomials; factored ships chunks+phases
// polynomials total). Legacy queries keep the original encoding, byte
// for byte.
func EncodeQuery(q *core.Query, p bfv.Params) []byte {
	qb := p.QBytes()
	b := buffer{data: make([]byte, 0, queryWireBytes(q, qb))}
	b.putQuery(q, qb)
	return b.data
}

// queryWireBytes is the exact length of q's EncodeQuery encoding, so
// encoders can size their output once.
func queryWireBytes(q *core.Query, qb int) int {
	n := 4*5 + 4*len(q.Residues) // metadata words + residues
	if q.Factored() {
		n += 4 + 4 + 4 // sentinel, version, plane count
		for _, tok := range q.DBTok {
			n += polyWireBytes(len(tok), qb)
		}
		n += 4
		for _, rhs := range q.RHS {
			n += 4 + polyWireBytes(len(rhs), qb)
		}
		return n
	}
	n += 4
	for _, ct := range q.Patterns {
		n += 4 + 4
		for _, c := range ct.C {
			n += polyWireBytes(len(c), qb)
		}
	}
	n += 4
	for _, toks := range q.Tokens {
		n += 4 + 4
		for _, tok := range toks {
			n += polyWireBytes(len(tok), qb)
		}
	}
	return n
}

// putQuery appends q's EncodeQuery encoding.
func (b *buffer) putQuery(q *core.Query, qb int) {
	if q.Factored() {
		b.putUint32(factoredSentinel)
		b.putInt(factoredWireVersion)
		b.putInt(q.YBits)
		b.putInt(q.AlignBits)
		b.putInt(q.DBBitLen)
		b.putInt(q.NumChunks)
		b.putInt(len(q.Residues))
		for _, r := range q.Residues {
			b.putInt(r)
		}
		b.putInt(len(q.DBTok))
		for _, tok := range q.DBTok {
			b.putPoly(tok, qb)
		}
		b.putInt(len(q.RHS))
		var keys [64]int
		for _, psi := range appendSortedKeys(keys[:0], q.RHS) {
			b.putInt(psi)
			b.putPoly(q.RHS[psi], qb)
		}
		return
	}
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
		b.putCiphertext(q.Patterns[psi], qb)
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

// decodeQueryHeader reads the metadata fields (after YBits) shared by
// every query encoding — single and batch-member, legacy and factored.
// AlignBits is read back as the signed 32-bit value the encoder wrote,
// so a negative alignment reaches the engines' validation as negative
// (and is rejected there with core.ErrInvalidAlign) instead of turning
// into a huge positive stride.
func decodeQueryHeader(b *buffer, q *core.Query) error {
	align, err := b.uint32()
	if err != nil {
		return err
	}
	q.AlignBits = int(int32(align))
	if q.DBBitLen, err = b.int(); err != nil {
		return err
	}
	if q.NumChunks, err = b.int(); err != nil {
		return err
	}
	nres, err := b.count(4)
	if err != nil {
		return err
	}
	q.Residues = make([]int, nres)
	for i := range q.Residues {
		if q.Residues[i], err = b.int(); err != nil {
			return err
		}
	}
	return nil
}

// decodeInlineTokens reads a legacy expanded-token section (residue,
// poly-count, polynomials), shared by the single-query decoder and both
// batch layouts. Returns nil when the section is empty.
func decodeInlineTokens(b *buffer, qb, degree int) (map[int][]ring.Poly, error) {
	ntok, err := b.count(8) // residue word + token-count word
	if err != nil {
		return nil, err
	}
	if ntok == 0 {
		return nil, nil
	}
	tokens := make(map[int][]ring.Poly, ntok)
	for i := 0; i < ntok; i++ {
		res, err := b.int()
		if err != nil {
			return nil, err
		}
		cnt, err := b.count(4)
		if err != nil {
			return nil, err
		}
		toks := make([]ring.Poly, cnt)
		for j := range toks {
			if toks[j], err = b.poly(qb, degree); err != nil {
				return nil, err
			}
		}
		tokens[res] = toks
	}
	return tokens, nil
}

// decodePatternRefs reads a (psi, pool-index) pattern reference section
// against a decoded ciphertext pool — the batch layouts' shared member
// pattern decode, with the pool bound enforced.
func decodePatternRefs(b *buffer, pool []*bfv.Ciphertext, member int) (map[int]*bfv.Ciphertext, error) {
	npat, err := b.count(8) // psi word + pool-index word
	if err != nil {
		return nil, err
	}
	patterns := make(map[int]*bfv.Ciphertext, npat)
	for i := 0; i < npat; i++ {
		psi, err := b.int()
		if err != nil {
			return nil, err
		}
		idx, err := b.int()
		if err != nil {
			return nil, err
		}
		if idx < 0 || idx >= len(pool) {
			return nil, fmt.Errorf("proto: batch member %d references pattern pool entry %d of %d", member, idx, len(pool))
		}
		patterns[psi] = pool[idx]
	}
	return patterns, nil
}

// DecodeQuery is the inverse of EncodeQuery: it accepts both the legacy
// expanded-token encoding (old clients keep working unchanged) and the
// versioned factored encoding.
func DecodeQuery(data []byte, p bfv.Params) (*core.Query, error) {
	b := buffer{data: data}
	first, err := b.uint32()
	if err != nil {
		return nil, err
	}
	if first == factoredSentinel {
		return decodeFactoredQuery(&b, p)
	}
	q := &core.Query{Patterns: map[int]*bfv.Ciphertext{}, YBits: int(first)}
	if err := decodeQueryHeader(&b, q); err != nil {
		return nil, err
	}
	qb := p.QBytes()
	npat, err := b.count(8) // psi word + ciphertext header
	if err != nil {
		return nil, err
	}
	for i := 0; i < npat; i++ {
		psi, err := b.int()
		if err != nil {
			return nil, err
		}
		if q.Patterns[psi], err = b.ciphertext(qb, p.N); err != nil {
			return nil, err
		}
	}
	if q.Tokens, err = decodeInlineTokens(&b, qb, p.N); err != nil {
		return nil, err
	}
	return q, nil
}

// decodeFactoredQuery parses the versioned factored encoding after the
// sentinel word. The DBTok plane must cover exactly NumChunks chunks —
// the kernels index it per chunk — and every polynomial is held to the
// ring degree, so a hostile peer cannot smuggle mis-shaped comparands
// into the fused kernel.
func decodeFactoredQuery(b *buffer, p bfv.Params) (*core.Query, error) {
	version, err := b.int()
	if err != nil {
		return nil, err
	}
	if version != factoredWireVersion {
		return nil, fmt.Errorf("proto: unsupported factored query version %d", version)
	}
	q := &core.Query{}
	if q.YBits, err = b.int(); err != nil {
		return nil, err
	}
	if err := decodeQueryHeader(b, q); err != nil {
		return nil, err
	}
	qb := p.QBytes()
	// Both sections are carved from one backing array each, allocated
	// before they are read, so their counts are bounded at the full
	// encoded size of an element (see carvePolys).
	ntok, err := b.count(polyWireBytes(p.N, qb))
	if err != nil {
		return nil, err
	}
	if ntok != q.NumChunks {
		return nil, fmt.Errorf("proto: factored query DBTok plane has %d chunks, header says %d", ntok, q.NumChunks)
	}
	q.DBTok = carvePolys(ntok, p.N)
	for _, tok := range q.DBTok {
		if err := b.polyInto(tok, qb); err != nil {
			return nil, err
		}
	}
	nrhs, err := b.count(4 + polyWireBytes(p.N, qb)) // psi word + poly
	if err != nil {
		return nil, err
	}
	q.RHS = make(map[int]ring.Poly, nrhs)
	for _, rhs := range carvePolys(nrhs, p.N) {
		psi, err := b.int()
		if err != nil {
			return nil, err
		}
		if err := b.polyInto(rhs, qb); err != nil {
			return nil, err
		}
		q.RHS[psi] = rhs
	}
	return q, nil
}

// EncodeUploadDB frames a named database upload: the target name, the
// requested engine spec (empty kind = server default), then the
// database itself.
func EncodeUploadDB(name string, spec core.EngineSpec, db *core.EncryptedDB, p bfv.Params) []byte {
	var b buffer
	b.putString(name)
	b.putString(spec.Kind)
	b.putInt(spec.Workers)
	b.putInt(spec.Shards)
	b.data = append(b.data, EncodeDB(db, p)...)
	return b.data
}

// DecodeUploadDB is the inverse of EncodeUploadDB.
func DecodeUploadDB(data []byte, p bfv.Params) (string, core.EngineSpec, *core.EncryptedDB, error) {
	b := buffer{data: data}
	var spec core.EngineSpec
	name, err := b.string()
	if err != nil {
		return "", spec, nil, err
	}
	if spec.Kind, err = b.string(); err != nil {
		return "", spec, nil, err
	}
	if spec.Workers, err = b.int(); err != nil {
		return "", spec, nil, err
	}
	if spec.Shards, err = b.int(); err != nil {
		return "", spec, nil, err
	}
	db, err := DecodeDB(data[b.off:], p)
	return name, spec, db, err
}

// EncodeNamedQuery frames a query addressed to a named database. The
// payload size is computed up front, so the name and the query are
// written into a single allocation.
func EncodeNamedQuery(name string, q *core.Query, p bfv.Params) []byte {
	qb := p.QBytes()
	b := buffer{data: make([]byte, 0, 4+len(name)+queryWireBytes(q, qb))}
	b.putString(name)
	b.putQuery(q, qb)
	return b.data
}

// SplitNamedQuery peels the database name off a MsgQuery payload
// without decoding the query itself. The coalescer routes on the name
// and deduplicates members on the raw query bytes, deferring the
// expensive decode (one polynomial per chunk in the factored form) to
// batch execution, where identical payloads decode once per window.
func SplitNamedQuery(data []byte) (string, []byte, error) {
	b := buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	return name, data[b.off:], nil
}

// DecodeNamedQuery is the inverse of EncodeNamedQuery.
func DecodeNamedQuery(data []byte, p bfv.Params) (string, *core.Query, error) {
	b := buffer{data: data}
	name, err := b.string()
	if err != nil {
		return "", nil, err
	}
	q, err := DecodeQuery(data[b.off:], p)
	return name, q, err
}

// EncodeName frames a bare database name (MsgDropDB).
func EncodeName(name string) []byte {
	var b buffer
	b.putString(name)
	return b.data
}

// DecodeName is the inverse of EncodeName.
func DecodeName(data []byte) (string, error) {
	b := buffer{data: data}
	return b.string()
}

// Residency states reported in DBInfo.State. A durable store serves
// cold databases transparently (the first search reloads the segment),
// so the listing distinguishes what is costing memory right now.
const (
	StateResident    = "resident"
	StateCold        = "cold"
	StateRetired     = "retired"
	StateQuarantined = "quarantined" // corrupt: fenced off, serves a typed error
)

// DBInfo describes one hosted database (MsgDBList). Chunks and BitLen
// come from registration metadata — persisted in the segment header and
// manifest — so they are valid for cold (evicted or not-yet-loaded)
// databases too.
type DBInfo struct {
	Name     string
	Engine   string // engine description ("pool(8 workers)") or, cold, the spec ("pool:8")
	State    string // StateResident, StateCold or StateRetired
	Chunks   int
	BitLen   int
	Searches int
}

// EncodeDBList serialises the database listing.
func EncodeDBList(infos []DBInfo) []byte {
	var b buffer
	b.putInt(len(infos))
	for _, in := range infos {
		b.putString(in.Name)
		b.putString(in.Engine)
		b.putString(in.State)
		b.putInt(in.Chunks)
		b.putInt(in.BitLen)
		b.putInt(in.Searches)
	}
	return b.data
}

// DecodeDBList is the inverse of EncodeDBList.
func DecodeDBList(data []byte) ([]DBInfo, error) {
	b := buffer{data: data}
	n, err := b.count(24) // six 4-byte words minimum per entry
	if err != nil {
		return nil, err
	}
	infos := make([]DBInfo, n)
	for i := range infos {
		if infos[i].Name, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].Engine, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].State, err = b.string(); err != nil {
			return nil, err
		}
		if infos[i].Chunks, err = b.int(); err != nil {
			return nil, err
		}
		if infos[i].BitLen, err = b.int(); err != nil {
			return nil, err
		}
		if infos[i].Searches, err = b.int(); err != nil {
			return nil, err
		}
	}
	return infos, nil
}

// CandidateWireBytes is the wire width of one candidate offset (4-byte
// little-endian). Defined in core so that engines accounting
// host-transfer bytes (the SSD controller) agree with the encoding
// without importing proto.
const CandidateWireBytes = core.CandidateWireBytes

// putCandidates appends a candidate-offset list: a count plus
// CandidateWireBytes-wide offsets. Offsets the encoding cannot
// represent are rejected rather than silently truncated — on databases
// past 2^32 bits a truncated offset would point at the wrong data.
func (b *buffer) putCandidates(candidates []int) error {
	b.putInt(len(candidates))
	for _, c := range candidates {
		if c < 0 || c > math.MaxUint32 {
			return fmt.Errorf("proto: candidate offset %d does not fit the %d-byte wire encoding", c, CandidateWireBytes)
		}
		b.putUint32(uint32(c))
	}
	return nil
}

// candidates is the inverse of putCandidates. Offsets a 32-bit int
// cannot hold are rejected rather than wrapped negative, mirroring the
// encode-side bound.
func (b *buffer) candidates() ([]int, error) {
	n, err := b.count(CandidateWireBytes)
	if err != nil {
		return nil, err
	}
	out := make([]int, n)
	for i := range out {
		v, err := b.uint32()
		if err != nil {
			return nil, err
		}
		if int(v) < 0 {
			return nil, fmt.Errorf("proto: candidate offset %d overflows int on this platform", v)
		}
		out[i] = int(v)
	}
	return out, nil
}

// EncodeStats serialises a serving-metrics snapshot (MsgStatsResult): a
// flat list of (name, int64 value) samples, the Registry.Snapshot
// flattening. Names are what keys the catalog; values are 64-bit so
// counters never wrap on the wire.
func EncodeStats(kvs []metrics.KV) []byte {
	var b buffer
	b.putInt(len(kvs))
	for _, kv := range kvs {
		b.putString(kv.Name)
		b.putUint64(uint64(kv.Value))
	}
	return b.data
}

// DecodeStats is the inverse of EncodeStats.
func DecodeStats(data []byte) ([]metrics.KV, error) {
	b := buffer{data: data}
	n, err := b.count(12) // name length word + 8 value bytes
	if err != nil {
		return nil, err
	}
	kvs := make([]metrics.KV, n)
	for i := range kvs {
		if kvs[i].Name, err = b.string(); err != nil {
			return nil, err
		}
		v, err := b.uint64()
		if err != nil {
			return nil, err
		}
		kvs[i].Value = int64(v)
	}
	return kvs, nil
}

// EncodeResult serialises candidate offsets. It fails on offsets above
// math.MaxUint32 instead of corrupting them.
func EncodeResult(candidates []int) ([]byte, error) {
	var b buffer
	if err := b.putCandidates(candidates); err != nil {
		return nil, err
	}
	return b.data, nil
}

// DecodeResult is the inverse of EncodeResult.
func DecodeResult(data []byte) ([]int, error) {
	b := buffer{data: data}
	return b.candidates()
}
