package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ciphermatch/internal/core"
	"ciphermatch/internal/engine"
	"ciphermatch/internal/proto"
)

// span is one recorded interval. Spans of one request share req; a
// span's parent is the span whose interval caused it (0 for roots).
// Times are nanoseconds since the run's trace base.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	base  time.Time
	spans []span
}

func (tr *tracer) add(name string, parent, req uint64, start, end time.Time) uint64 {
	id := uint64(len(tr.spans) + 1)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(tr.base)), End: int64(end.Sub(tr.base))})
	return id
}

// selfTimes returns each span's duration minus the time its children
// cover. Children of one span never overlap: the replay runs its layers
// one after another.
func (tr *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(tr.spans))
	for i, s := range tr.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent != 0 {
			self[s.Parent-1] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (tr *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (tr *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Replayed layers, in the order a request passes through them. Each is
// one public call: proto.EncodeNamedQuery, proto.DecodeNamedQuery, the
// serial engine's SearchAndIndex on a HitsOnly copy of the query,
// core.Candidates, proto.EncodeResult.
var replayLayers = []string{"encode", "decode", "stream", "index", "encode_result"}

// replayStats are the counts the replay observes per request.
type replayStats struct {
	chunkStreams []float64
	candidates   []float64
	hitBits      []float64
}

// replay re-runs every traced request's payload through the layers
// below the socket, each as a child span of a replay span that is a
// sibling of the request's rpc span. It checks the replayed candidates
// against the ground truth as well.
func (d *deployment) replay(tr *tracer, rpcs []rpcSpan) (*replayStats, []string, error) {
	engines := map[[2]int]core.Engine{}
	defer func() {
		for _, e := range engines {
			if c, ok := e.(io.Closer); ok {
				c.Close()
			}
		}
	}()
	st := &replayStats{}
	var wrong []string
	for _, r := range rpcs {
		tr.add("rpc", 0, r.req, r.start, r.end)
		key := [2]int{r.tenant, r.version}
		eng := engines[key]
		if eng == nil {
			var err error
			if eng, err = engine.Build(params, d.dbs[r.tenant][r.version], core.EngineSpec{}); err != nil {
				return nil, nil, err
			}
			engines[key] = eng
		}
		t := d.in.tenants[r.tenant]
		var stamps [6]time.Time
		stamps[0] = time.Now()
		payload := proto.EncodeNamedQuery(t.name, d.queries[r.tenant][r.query], params)
		stamps[1] = time.Now()
		_, q, err := proto.DecodeNamedQuery(payload, params)
		stamps[2] = time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("replay decode: %w", err)
		}
		hitsOnly := *q
		hitsOnly.HitsOnly = true
		ir, err := eng.SearchAndIndex(&hitsOnly)
		stamps[3] = time.Now()
		if err != nil {
			return nil, nil, fmt.Errorf("replay stream: %w", err)
		}
		cands := core.Candidates(ir.Hits, q.DBBitLen, q.YBits, q.AlignBits)
		stamps[4] = time.Now()
		if _, err := proto.EncodeResult(cands); err != nil {
			return nil, nil, fmt.Errorf("replay encode result: %w", err)
		}
		stamps[5] = time.Now()
		bits := 0
		for _, bm := range ir.Hits {
			bits += bm.OnesCount()
		}
		ir.Release()
		if w := checkCandidates(t, r.version, r.query, cands); w != "" {
			wrong = append(wrong, "replay "+w)
		}
		parent := tr.add("replay", 0, r.req, stamps[0], time.Now())
		for i, name := range replayLayers {
			tr.add(name, parent, r.req, stamps[i], stamps[i+1])
		}
		st.chunkStreams = append(st.chunkStreams, float64(ir.Stats.ChunkStreams))
		st.candidates = append(st.candidates, float64(len(cands)))
		st.hitBits = append(st.hitBits, float64(bits))
	}
	return st, wrong, nil
}

// layerTimes groups span self times by request: for each request id,
// the rpc round trip and each replayed layer.
func (tr *tracer) layerTimes() map[uint64]map[string]time.Duration {
	self := tr.selfTimes()
	out := map[uint64]map[string]time.Duration{}
	for i, s := range tr.spans {
		m := out[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.Req] = m
		}
		m[s.Name] += self[i]
	}
	return out
}
