package proto

import (
	"sync"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/metrics"
	"ciphermatch/internal/trace"
)

// TestTracingEndToEnd drives traced queries through a real socket on
// both serving paths (direct and coalesced) and checks the full
// observability loop: client trace IDs survive the wire, server-side
// stage stamps land, the flight recorder serves them back over
// MsgTraceDump, per-tenant labeled metrics accumulate, and traced
// results stay bit-identical to untraced ones.
func TestTracingEndToEnd(t *testing.T) {
	p := bfv.ParamsToy()
	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"direct", false}, {"coalesced", true}} {
		t.Run(mode.name, func(t *testing.T) {
			fx := newCoalesceFixture(t, p, "trace-"+mode.name)
			var srv *Server
			if mode.coalesce {
				var err error
				srv, err = NewServerWithServing(p, core.EngineSpec{}, StoreOptions{}, CoalesceConfig{
					Window:   2 * time.Millisecond,
					MaxBatch: 8,
				})
				if err != nil {
					t.Fatal(err)
				}
			} else {
				srv = NewServerWithSpec(p, core.EngineSpec{})
			}
			defer srv.Close()
			// A 1ns slow threshold routes every request into the slow ring
			// too, so both dump flavours can be asserted non-empty.
			srv.SetTracing(64, time.Nanosecond)
			addr := startServer(t, srv)

			traced, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.Close()
			const base = uint64(0xAB) << 56
			traced.EnableTracing(base)
			if err := traced.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
				t.Fatal(err)
			}

			plain, err := Dial(addr, p)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.Close()

			for qi, q := range fx.queries {
				got, err := traced.Search(fx.name, q)
				if err != nil {
					t.Fatalf("%s traced: %v", fx.labels[qi], err)
				}
				if !equalInts(got, fx.expect[qi]) {
					t.Fatalf("%s traced candidates %v != direct %v", fx.labels[qi], got, fx.expect[qi])
				}
				// The trace extension must be invisible to results: an
				// untraced client asking the same question gets identical
				// bytes back.
				got2, err := plain.Search(fx.name, q)
				if err != nil {
					t.Fatalf("%s untraced: %v", fx.labels[qi], err)
				}
				if !equalInts(got2, fx.expect[qi]) {
					t.Fatalf("%s untraced candidates %v != direct %v", fx.labels[qi], got2, fx.expect[qi])
				}
			}

			dump, err := traced.TraceDump(0, false)
			if err != nil {
				t.Fatal(err)
			}
			var clientTraced, serverAssigned int
			for _, tr := range dump {
				if tr.Tenant != fx.name {
					t.Fatalf("trace tenant = %q, want %q", tr.Tenant, fx.name)
				}
				if tr.TotalNS <= 0 || tr.StageNS[trace.StageArena] <= 0 {
					t.Fatalf("trace missing stage time: %+v", tr)
				}
				if tr.StageNS[trace.StageDecode] <= 0 {
					t.Fatalf("decode stage not stamped: %+v", tr)
				}
				if tr.ChunkStreams <= 0 || tr.Batch < 1 {
					t.Fatalf("arena attribution missing: %+v", tr)
				}
				// Serial queries each form their own window, so FlagCoalesced
				// (= actually shared a batch) stays clear; the coalescer path
				// shows itself through the coalesce_wait stage instead.
				if mode.coalesce && tr.StageNS[trace.StageCoalesceWait] <= 0 {
					t.Fatalf("coalesced-path trace missing coalesce_wait: %+v", tr)
				}
				if tr.Flags&trace.FlagClientID != 0 {
					clientTraced++
					if tr.ID <= base || tr.ID > base+uint64(len(fx.queries)) {
						t.Fatalf("client trace ID %#x outside minted range", tr.ID)
					}
				} else {
					serverAssigned++
					if tr.ID == 0 {
						t.Fatal("server-assigned trace ID is zero")
					}
				}
			}
			if clientTraced != len(fx.queries) || serverAssigned != len(fx.queries) {
				t.Fatalf("dump split = %d client / %d server, want %d / %d",
					clientTraced, serverAssigned, len(fx.queries), len(fx.queries))
			}

			slow, err := traced.TraceDump(0, true)
			if err != nil {
				t.Fatal(err)
			}
			if len(slow) != len(dump) {
				t.Fatalf("1ns threshold should route all %d traces to the slow ring, got %d",
					len(dump), len(slow))
			}

			// Per-tenant serving telemetry and stage histograms.
			kvs := srv.Metrics().Snapshot()
			wantQ := int64(2 * len(fx.queries))
			if v := statValue(t, kvs, `tenant_queries_total{db="`+fx.name+`"}`); v != wantQ {
				t.Fatalf("tenant_queries_total = %d, want %d", v, wantQ)
			}
			if v := statValue(t, kvs, `stage_latency_ns_count{stage="arena"}`); v != wantQ {
				t.Fatalf("arena stage samples = %d, want %d", v, wantQ)
			}
			if v := statValue(t, kvs, `tenant_latency_ns_count{db="`+fx.name+`"}`); v != wantQ {
				t.Fatalf("tenant latency samples = %d, want %d", v, wantQ)
			}

			// Unknown tenants collapse into the "_other" label (bounded
			// cardinality) and their traces carry the error flag.
			if _, err := traced.Search("no-such-db", fx.queries[0]); err == nil {
				t.Fatal("search against a missing database must fail")
			}
			kvs = srv.Metrics().Snapshot()
			if v := statValue(t, kvs, `tenant_queries_total{db="_other"}`); v != 1 {
				t.Fatalf(`tenant_queries_total{db="_other"} = %d, want 1`, v)
			}
			if v := statValue(t, kvs, `tenant_errors_total{db="_other"}`); v != 1 {
				t.Fatalf(`tenant_errors_total{db="_other"} = %d, want 1`, v)
			}
			dump, err = traced.TraceDump(1, false)
			if err != nil {
				t.Fatal(err)
			}
			if len(dump) != 1 || dump[0].Flags&trace.FlagError == 0 {
				t.Fatalf("newest trace should carry FlagError: %+v", dump)
			}
		})
	}
}

// TestTraceDumpLimitsAndStats checks the dump request's max parameter
// and that the flat MsgStats snapshot carries the labeled trace
// families without disturbing the pre-existing flat names.
func TestTraceDumpLimitsAndStats(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "trace-limits")
	srv := NewServerWithSpec(p, core.EngineSpec{})
	defer srv.Close()
	addr := startServer(t, srv)
	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := conn.Search(fx.name, fx.queries[0]); err != nil {
			t.Fatal(err)
		}
	}
	dump, err := conn.TraceDump(2, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 2 {
		t.Fatalf("TraceDump(2) returned %d traces", len(dump))
	}
	if dump[0].Seq <= dump[1].Seq {
		t.Fatalf("dump must be newest first: seqs %d, %d", dump[0].Seq, dump[1].Seq)
	}
	kvs, err := conn.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if v := statValue(t, kvs, "queries_total"); v != 3 {
		t.Fatalf("queries_total = %d, want 3", v)
	}
	if v := statValue(t, kvs, "request_latency_ns_count"); v != 3 {
		t.Fatalf("request_latency_ns_count = %d, want 3", v)
	}
	if _, ok := metrics.Lookup(kvs, `stage_latency_ns_count{stage="write"}`); !ok {
		t.Fatal("labeled stage families missing from the flat stats snapshot")
	}
}

// TestTelemetryReadYourWrites pins the publish order of the connection
// handler: once a client holds its reply, the request's trace and its
// tenant counters are visible. A hook holds the handler right after the
// reply write until the checks are done, so a handler that published
// after writing would fail here every time, not only under load.
func TestTelemetryReadYourWrites(t *testing.T) {
	p := bfv.ParamsToy()
	fx := newCoalesceFixture(t, p, "ryw")
	srv := NewServerWithSpec(p, core.EngineSpec{})
	defer srv.Close()
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	srv.afterQueryWrite = func() { <-release }
	addr := startServer(t, srv)

	conn, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.UploadDB(fx.name, core.EngineSpec{}, fx.db); err != nil {
		t.Fatal(err)
	}
	conn.EnableTracing(uint64(0xCD) << 56)
	if _, err := conn.Search(fx.name, fx.queries[0]); err != nil {
		t.Fatal(err)
	}

	// The querying connection's handler is parked in the hook; observe
	// from a second connection and from the registry.
	ctrl, err := Dial(addr, p)
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	dump, err := ctrl.TraceDump(0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(dump) != 1 || dump[0].Flags&trace.FlagClientID == 0 || dump[0].Tenant != fx.name {
		t.Fatalf("trace not published before the reply: %+v", dump)
	}
	kvs := srv.Metrics().Snapshot()
	if v := statValue(t, kvs, `tenant_queries_total{db="`+fx.name+`"}`); v != 1 {
		t.Fatalf("tenant_queries_total = %d before the handler resumed, want 1", v)
	}
	if v := statValue(t, kvs, `tenant_latency_ns_count{db="`+fx.name+`"}`); v != 1 {
		t.Fatalf("tenant latency samples = %d before the handler resumed, want 1", v)
	}
	unblock()
}
