package main

import (
	"fmt"
	"sort"

	"ciphermatch/internal/core"
	"ciphermatch/internal/rng"
	"ciphermatch/internal/workload"
)

// Workload names, as BENCHMARK.json and --workload spell them.
const (
	wlDNA     = "dna-scan"
	wlRecords = "records-hot"
	wlChurn   = "tenant-churn"
)

var workloadNames = []string{wlDNA, wlRecords, wlChurn}

// Sizes of the three workloads. See README.md for why each exists and
// how its arenas compare with the tenant-churn memory budget.
const (
	dnaBases     = 512 << 10 // 128 KiB packed, 64 chunks, 1 MiB arena
	dnaReads     = 16
	dnaReadBases = 32 // 64-bit queries

	hotRecords = 256 // 8 KiB, 4 chunks
	hotKeys    = 32
	hotConns   = 2

	churnTenants     = 8
	churnRecords     = 1024 // 32 KiB, 16 chunks, 256 KiB arena per tenant
	churnKeys        = 4
	churnUploadEvery = 25 // one operation in 25 re-uploads its tenant
	churnBudget      = 1 << 20
)

// recordLayout is the fixed-width record of records-hot and
// tenant-churn: 16-byte keys, searched at byte alignment.
var recordLayout = workload.RecordLayout{KeyBytes: 16, ValueBytes: 16}

// tenantInput is one data owner's plaintext side: its table versions,
// its query plaintexts, and the ground truth for every (version, query)
// pair.
type tenantInput struct {
	name      string
	align     int
	bitLen    int
	versions  [][]byte // tenant-churn alternates between two; the others have one
	queries   [][]byte
	queryBits int
	// expect[v][q] is core.ExpectedCandidates for version v, query q,
	// computed from the plaintext alone.
	expect [][][]int
}

// opKind is one closed-loop operation.
type opKind uint8

const (
	opSearch opKind = iota
	opUpload
)

type op struct {
	kind   opKind
	tenant int
	query  int
}

// inputs is everything a workload feeds the program, a pure function of
// the workload name and the seed.
type inputs struct {
	workload string
	seed     int64
	conns    int
	tenants  []*tenantInput
	churn    bool
	// tenantWeights and queryWeights drive the seeded operation streams.
	tenantWeights []float64
	queryWeights  []float64
}

func seededSource(wl string, seed int64, domain string) *rng.Source {
	return rng.NewSourceFromString(fmt.Sprintf("servebench/%s/%d/%s", wl, seed, domain))
}

// zipfWeights returns cumulative weights 1/(k+1) for k < n, normalised
// to end at 1.
func zipfWeights(n int) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return cum
}

func pick(cum []float64, src *rng.Source) int {
	return sort.SearchFloat64s(cum, src.Float64())
}

// makeInputs builds a workload's plaintext tables and queries from the
// seed, and computes the expected candidates of every query.
func makeInputs(wl string, seed int64) (*inputs, error) {
	in := &inputs{workload: wl, seed: seed, conns: 1}
	src := seededSource(wl, seed, "data")
	switch wl {
	case wlDNA:
		genome := workload.RandomGenome(dnaBases, src)
		packed, bits, err := workload.EncodeBases(genome)
		if err != nil {
			return nil, err
		}
		t := &tenantInput{name: "genome", align: 2, bitLen: bits, versions: [][]byte{packed}, queryBits: 2 * dnaReadBases}
		for i := 0; i < dnaReads; i++ {
			read, err := workload.ExtractRead(genome, src.Intn(dnaBases-dnaReadBases), dnaReadBases)
			if err != nil {
				return nil, err
			}
			q, _, err := workload.EncodeBases(read)
			if err != nil {
				return nil, err
			}
			t.queries = append(t.queries, q)
		}
		in.tenants = []*tenantInput{t}
	case wlRecords:
		t, err := recordTenant("records", hotRecords, hotKeys, false, src)
		if err != nil {
			return nil, err
		}
		in.tenants = []*tenantInput{t}
		in.conns = hotConns
		in.queryWeights = zipfWeights(hotKeys)
	case wlChurn:
		for i := 0; i < churnTenants; i++ {
			t, err := recordTenant(fmt.Sprintf("tenant-%d", i), churnRecords, churnKeys, true, src.ForkIndexed("tenant", i))
			if err != nil {
				return nil, err
			}
			in.tenants = append(in.tenants, t)
		}
		in.churn = true
		in.tenantWeights = zipfWeights(churnTenants)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", wl, workloadNames)
	}
	for _, t := range in.tenants {
		t.expect = make([][][]int, len(t.versions))
		for v, data := range t.versions {
			for _, q := range t.queries {
				t.expect[v] = append(t.expect[v], core.ExpectedCandidates(data, t.bitLen, q, t.queryBits, t.align))
			}
		}
	}
	return in, nil
}

// recordTenant builds a table of n fixed-width records and keys query
// keys drawn from distinct records. With twoVersions, version 1 holds
// the same records rotated by a seeded offset, so every key moves and
// its expected candidates change.
func recordTenant(name string, n, keys int, twoVersions bool, src *rng.Source) (*tenantInput, error) {
	recs := workload.RandomRecords(n, recordLayout, src)
	flat, err := workload.Flatten(recs, recordLayout)
	if err != nil {
		return nil, err
	}
	t := &tenantInput{name: name, align: 8, bitLen: 8 * len(flat), versions: [][]byte{flat}, queryBits: 8 * recordLayout.KeyBytes}
	if twoVersions {
		shift := 1 + src.Intn(n-1)
		rotated, err := workload.Flatten(append(append([]workload.Record(nil), recs[shift:]...), recs[:shift]...), recordLayout)
		if err != nil {
			return nil, err
		}
		t.versions = append(t.versions, rotated)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := 0; i < keys; i++ {
		j := i + src.Intn(n-i)
		perm[i], perm[j] = perm[j], perm[i]
		q, _, err := workload.KeyQuery(recs[perm[i]].Key, recordLayout)
		if err != nil {
			return nil, err
		}
		t.queries = append(t.queries, q)
	}
	return t, nil
}

// opStream returns connection conn's operation sequence: a pure
// function of the workload, the seed and conn.
func (in *inputs) opStream(conn int) func() op {
	src := seededSource(in.workload, in.seed, fmt.Sprintf("ops/%d", conn))
	i := 0
	return func() op {
		defer func() { i++ }()
		switch in.workload {
		case wlDNA:
			return op{kind: opSearch, query: i % dnaReads}
		case wlRecords:
			return op{kind: opSearch, query: pick(in.queryWeights, src)}
		default:
			t := pick(in.tenantWeights, src)
			if i%churnUploadEvery == churnUploadEvery-1 {
				return op{kind: opUpload, tenant: t}
			}
			return op{kind: opSearch, tenant: t, query: src.Intn(churnKeys)}
		}
	}
}

// warmupOps is the fixed warm-up of a workload: every distinct query
// once per connection, which fills the bitset pools and, on
// tenant-churn, forces the first reloads of evicted tenants.
func (in *inputs) warmupOps() []op {
	var ops []op
	for ti, t := range in.tenants {
		for qi := range t.queries {
			ops = append(ops, op{kind: opSearch, tenant: ti, query: qi})
		}
	}
	return ops
}
