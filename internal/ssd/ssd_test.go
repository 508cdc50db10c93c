package ssd

import (
	"testing"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/mathutil"
	"ciphermatch/internal/rng"
)

func newTestSSD(t *testing.T) *SSD {
	t.Helper()
	s, err := New(TestConfig(), bfv.ParamsToy(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func plant(db []byte, query []byte, queryBits, o int) {
	for j := 0; j < queryBits; j++ {
		mathutil.SetBit(db, o+j, mathutil.GetBit(query, j))
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(TestConfig(), bfv.ParamsToyMul(), SoftwareTransposition); err == nil {
		t.Error("accepted q != 2^32")
	}
	cfg := TestConfig()
	cfg.Geometry.PageBytes = 4 // 32 bitlines < n=64
	if _, err := New(cfg, bfv.ParamsToy(), SoftwareTransposition); err == nil {
		t.Error("accepted ring degree wider than the page")
	}
}

func TestCMWriteReadRoundtrip(t *testing.T) {
	s := newTestSSD(t)
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("ssd-rt"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 320) // 2560 bits = 3 toy chunks
	rng.NewSourceFromString("data").Bytes(data)
	edb, err := client.EncryptDatabase(data, 2560)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	if s.StoredChunks() != len(edb.Chunks) {
		t.Fatalf("stored %d chunks, want %d", s.StoredChunks(), len(edb.Chunks))
	}
	r := cfg.Params.Ring()
	for j := range edb.Chunks {
		ct, err := s.CMReadChunk(j)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if !r.Equal(ct.C[c], edb.Chunks[j].C[c]) {
				t.Fatalf("chunk %d component %d corrupted by vertical roundtrip", j, c)
			}
		}
	}
	if _, err := s.CMReadChunk(len(edb.Chunks)); err == nil {
		t.Error("CMReadChunk accepted out-of-range chunk")
	}
}

// TestCMSearchMatchesSoftware is the headline integration test: the
// in-flash search (bit-serial addition through the latch simulator plus
// controller index generation) must return exactly the candidates of the
// software evaluator path.
func TestCMSearchMatchesSoftware(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 8, Mode: core.ModeSeededMatch}
	client, err := core.NewClient(cfg, rng.NewSourceFromString("ifp-vs-sw"))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 320) // 2560 bits, 3 chunks
	rng.NewSourceFromString("ifp-data").Bytes(data)
	query := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	plant(data, query, 32, 96)
	plant(data, query, 32, 1016) // spans the chunk-0/chunk-1 boundary
	plant(data, query, 32, 2400)

	edb, err := client.EncryptDatabase(data, 2560)
	if err != nil {
		t.Fatal(err)
	}
	q, err := client.PrepareQuery(query, 32, 2560)
	if err != nil {
		t.Fatal(err)
	}

	// Software path.
	server := core.NewServer(cfg.Params, edb)
	swResult, err := server.SearchAndIndex(q)
	if err != nil {
		t.Fatal(err)
	}

	// In-flash path.
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	ifpResult, err := s.CMSearch(q)
	if err != nil {
		t.Fatal(err)
	}

	if len(swResult.Candidates) == 0 {
		t.Fatal("software search found nothing; test is vacuous")
	}
	if len(ifpResult.Candidates) != len(swResult.Candidates) {
		t.Fatalf("IFP candidates %v != software %v", ifpResult.Candidates, swResult.Candidates)
	}
	for i := range swResult.Candidates {
		if ifpResult.Candidates[i] != swResult.Candidates[i] {
			t.Fatalf("IFP candidates %v != software %v", ifpResult.Candidates, swResult.Candidates)
		}
	}
	// Planted occurrences present.
	for _, o := range []int{96, 1016, 2400} {
		found := false
		for _, c := range ifpResult.Candidates {
			if c == o {
				found = true
			}
		}
		if !found {
			t.Fatalf("planted occurrence %d missing from IFP candidates %v", o, ifpResult.Candidates)
		}
	}
	// The hit bitmaps must agree variant by variant.
	for res, swBM := range swResult.Hits {
		ifpBM := ifpResult.Hits[res]
		if ifpBM.Len() != swBM.Len() {
			t.Fatalf("bitmap length mismatch for residue %d", res)
		}
		for w := 0; w < swBM.Len(); w++ {
			if swBM.Get(w) != ifpBM.Get(w) {
				t.Fatalf("residue %d window %d: software %v, IFP %v", res, w, swBM.Get(w), ifpBM.Get(w))
			}
		}
	}
}

func TestCMSearchRequiresTokens(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeClientDecrypt}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("no-tokens"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1024)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CMSearch(q); err == nil {
		t.Error("CMSearch accepted a query without tokens")
	}
}

// TestCMSearchEmptyResidues: a token-bearing query with no shift
// variants (a hostile wire peer can send one) must return an empty
// result, not panic — FactorQuery returns an empty form for it and the
// controller must not touch the absent DBTok plane.
func TestCMSearchEmptyResidues(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("empty-res"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1024)
	q.Residues = nil
	ir, err := s.CMSearch(q)
	if err != nil {
		t.Fatalf("empty-residue search errored: %v", err)
	}
	if len(ir.Hits) != 0 || len(ir.Candidates) != 0 {
		t.Fatalf("empty-residue search returned non-empty result: %+v", ir)
	}
}

func TestCMSearchValidatesDBShape(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("shape"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	s := newTestSSD(t)
	if _, err := s.CMSearch(&core.Query{YBits: 16}); err == nil {
		t.Error("CMSearch accepted search before CMWriteDatabase")
	}
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	qWrong, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 2048)
	if _, err := s.CMSearch(qWrong); err == nil {
		t.Error("CMSearch accepted query for a different database size")
	}
	// Wire-supplied shape fields: a zero length (a division by zero in
	// the phase computation) and a non-positive alignment are refused.
	q, _ := client.PrepareQuery([]byte{0xAB, 0xCD}, 16, 1024)
	for _, mutate := range []func(*core.Query){
		func(q *core.Query) { q.YBits = 0 },
		func(q *core.Query) { q.AlignBits = 0 },
		func(q *core.Query) { q.AlignBits = -8 },
	} {
		bad := *q
		mutate(&bad)
		if _, err := s.CMSearch(&bad); err == nil {
			t.Errorf("CMSearch accepted YBits=%d AlignBits=%d", bad.YBits, bad.AlignBits)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), AlignBits: 16, Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("acct"))
	data := make([]byte, 256) // 2048 bits = 2 chunks
	edb, _ := client.EncryptDatabase(data, 2048)
	q, _ := client.PrepareQuery([]byte{0x12, 0x34}, 16, 2048)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	writeTransposes := s.ControllerStats().TransposePages
	if writeTransposes == 0 {
		t.Fatal("CM-write must use the transposition unit")
	}
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	cs := s.ControllerStats()
	fs := s.FlashStats()
	// One variant (16-bit query, 16-bit alignment), 2 chunks = 4 slots;
	// TestConfig lanes: 4096 bits / 64 = 64 lanes per group -> 1 group.
	if cs.HomAdds != 2 {
		t.Errorf("HomAdds = %d, want 2", cs.HomAdds)
	}
	if fs.Reads != 32 {
		t.Errorf("flash reads = %d, want 32 (one bit-serial pass)", fs.Reads)
	}
	if cs.IndexGenPages != 1 || cs.IndexGenTime != s.cfg.IndexGenLatency {
		t.Errorf("index generation accounting: %+v", cs)
	}
	if fs.Time == 0 || fs.Energy == 0 {
		t.Error("flash time/energy not accounted")
	}
	if s.MaxPlaneTime() == 0 || s.MaxPlaneTime() > fs.Time {
		t.Error("MaxPlaneTime inconsistent")
	}
}

// TestSearchPreservesStoredDatabase: CM-search computes entirely in the
// latches, so the stored ciphertexts must be bit-identical afterwards.
func TestSearchPreservesStoredDatabase(t *testing.T) {
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("preserve"))
	data := make([]byte, 256)
	rng.NewSourceFromString("preserve-data").Bytes(data)
	edb, _ := client.EncryptDatabase(data, 2048)
	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	q, _ := client.PrepareQuery([]byte{0x42, 0x24}, 16, 2048)
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	r := cfg.Params.Ring()
	for j := range edb.Chunks {
		ct, err := s.CMReadChunk(j)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			if !r.Equal(ct.C[c], edb.Chunks[j].C[c]) {
				t.Fatalf("chunk %d component %d mutated by CM-search", j, c)
			}
		}
	}
}

func TestSearchDoesNotWearFlash(t *testing.T) {
	// §4.3.1 Reliability: CM-search must not program or erase any block.
	cfg := core.Config{Params: bfv.ParamsToy(), Mode: core.ModeSeededMatch}
	client, _ := core.NewClient(cfg, rng.NewSourceFromString("wear"))
	data := make([]byte, 128)
	edb, _ := client.EncryptDatabase(data, 1024)
	q, _ := client.PrepareQuery([]byte{0xFF, 0x00}, 16, 1024)

	s := newTestSSD(t)
	if err := s.CMWriteDatabase(edb); err != nil {
		t.Fatal(err)
	}
	progsBefore := s.FlashStats().Programs
	if _, err := s.CMSearch(q); err != nil {
		t.Fatal(err)
	}
	if s.FlashStats().Programs != progsBefore {
		t.Error("CM-search programmed flash pages")
	}
	if s.FlashStats().Erases != 0 {
		t.Error("CM-search erased blocks")
	}
}

func TestOverheadReport(t *testing.T) {
	s, err := New(DefaultConfig(), bfv.ParamsPaper(), SoftwareTransposition)
	if err != nil {
		t.Fatal(err)
	}
	r := s.Overheads()
	if r.ResultStagingBytes != PaperResultStagingBytes {
		t.Errorf("ResultStagingBytes = %d, want %d (0.5 MiB, §6.3)",
			r.ResultStagingBytes, PaperResultStagingBytes)
	}
	if r.MicroprogramBytes > 1024 {
		t.Errorf("µ-program footprint %d exceeds 1 KB", r.MicroprogramBytes)
	}
	if r.PeripheralAreaOverheadPct != 0.6 || r.TransposeUnitAreaMM2 != 0.24 || r.AESUnitAreaMM2 != 0.13 {
		t.Errorf("area overheads drifted from the paper: %+v", r)
	}
	if r.SLCCapacityLossBytes <= 0 {
		t.Error("SLC capacity loss must be positive")
	}
}

func TestTransposeLatencyScaling(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.TransposeLatency(SoftwareTransposition) != cfg.SoftTransposeLatency {
		t.Error("4 KiB software transposition latency must equal the paper constant")
	}
	if cfg.TransposeLatency(HardwareTransposition) != cfg.HardTransposeLatency {
		t.Error("4 KiB hardware transposition latency must equal the paper constant")
	}
	small := TestConfig() // 512-byte pages: 1/8 of the reference
	if got, want := small.TransposeLatency(SoftwareTransposition), cfg.SoftTransposeLatency/8; got != want {
		t.Errorf("scaled software transposition = %v, want %v", got, want)
	}
	// The software unit must hide under the SLC flash read (§4.3.2); the
	// hardware unit must hide under a Z-NAND 3 µs read (§7.1).
	if cfg.TransposeLatency(SoftwareTransposition) > cfg.Timing.ReadSLC {
		t.Error("software transposition no longer hides under the flash read")
	}
}
