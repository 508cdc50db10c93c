package proto

import (
	"fmt"
	"testing"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
)

// TestInvalidAlignRejectedOverWire pins that a query whose AlignBits is
// zero or negative is answered with MsgError before a deadline — on the
// serial, pool and ssd engines, on the direct and the coalesced path,
// as a MsgQuery and as a MsgBatchQuery member — instead of reaching
// candidate generation, where a zero stride never advances. A healthy
// query on the same connection must still be answered afterwards.
func TestInvalidAlignRejectedOverWire(t *testing.T) {
	p := bfv.ParamsToy()
	specs := []core.EngineSpec{
		{Kind: core.EngineSerial},
		{Kind: core.EnginePool, Workers: 2},
		{Kind: core.EngineSSD},
	}
	for _, spec := range specs {
		for _, coalesce := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/coalesce=%v", spec.Kind, coalesce), func(t *testing.T) {
				fx := newCoalesceFixture(t, p, "align-"+spec.Kind)
				var cc CoalesceConfig
				if coalesce {
					cc = CoalesceConfig{Window: 2 * time.Millisecond, MaxBatch: 8}
				}
				srv, err := NewServerWithServing(p, spec, StoreOptions{}, cc)
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				conn, err := Dial(startServer(t, srv), p)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				if err := conn.UploadDB(fx.name, spec, fx.db); err != nil {
					t.Fatal(err)
				}
				conn.conn.SetDeadline(time.Now().Add(10 * time.Second)) //nolint:errcheck // a failed deadline surfaces as a hang below

				for _, align := range []int{0, -8} {
					for _, qi := range []int{0, 2} { // factored-A, legacy-A
						bad := *fx.queries[qi]
						bad.AlignBits = align
						label := fmt.Sprintf("%s align=%d", fx.labels[qi], align)
						reply, body, err := conn.roundTrip(MsgQuery, EncodeNamedQuery(fx.name, &bad, p))
						if err != nil {
							t.Fatalf("%s MsgQuery: %v", label, err)
						}
						if reply != MsgError {
							t.Fatalf("%s MsgQuery: reply %d (%s), want MsgError", label, reply, body)
						}
						bq := &core.BatchQuery{Queries: []*core.Query{fx.queries[1], &bad}}
						reply, body, err = conn.roundTrip(MsgBatchQuery, EncodeNamedBatchQuery(fx.name, bq, p))
						if err != nil {
							t.Fatalf("%s MsgBatchQuery: %v", label, err)
						}
						if reply != MsgError {
							t.Fatalf("%s MsgBatchQuery: reply %d (%s), want MsgError", label, reply, body)
						}
					}
				}
				got, err := conn.Search(fx.name, fx.queries[0])
				if err != nil || !equalInts(got, fx.expect[0]) {
					t.Fatalf("healthy query after rejections: %v, err %v; want %v", got, err, fx.expect[0])
				}
			})
		}
	}
}
