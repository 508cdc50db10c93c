package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ciphermatch/internal/core"
	"ciphermatch/internal/proto"
	"ciphermatch/internal/segment"
)

// storeProbe is what timing Server.Store().Search directly measured.
type storeProbe struct {
	warmMs []float64
	wrong  []string
}

// probeStore replays the traced requests' (tenant, query) sequence
// straight into the server's store, classifying each call as warm or
// cold by the tenant's Store.List state just before it. Only warm calls
// are timed: cold search is timed by probeSegments, the same way on
// every workload. Every answer is checked.
func (d *deployment) probeStore(rpcs []rpcSpan, max int) (*storeProbe, error) {
	decoded := map[[2]int]*core.Query{}
	p := &storeProbe{}
	st := d.srv.Store()
	for i, r := range rpcs {
		if i == max {
			break
		}
		key := [2]int{r.tenant, r.query}
		t := d.in.tenants[r.tenant]
		q := decoded[key]
		if q == nil {
			var err error
			if _, q, err = proto.DecodeNamedQuery(proto.EncodeNamedQuery(t.name, d.queries[r.tenant][r.query], params), params); err != nil {
				return nil, err
			}
			decoded[key] = q
		}
		cold := false
		for _, info := range st.List() {
			if info.Name == t.name {
				cold = info.State == proto.StateCold
			}
		}
		start := time.Now()
		ir, err := st.Search(t.name, q)
		took := ms(time.Since(start))
		if err != nil {
			return nil, fmt.Errorf("store search %s: %w", t.name, err)
		}
		if w := checkCandidates(t, d.current[r.tenant], r.query, ir.Candidates); w != "" {
			p.wrong = append(p.wrong, "store "+w)
		}
		ir.Release()
		if !cold {
			p.warmMs = append(p.warmMs, took)
		}
	}
	return p, nil
}

// segmentProbe is what timing the segment layer measured.
type segmentProbe struct {
	writeMs, openMs, coldMs []float64
	bytesPerDBByte          float64
	wrong                   []string
}

// probeSegments writes the first tenant's current table as a segment
// rounds times, timing segment.Write and segment.Open. Each round also
// opens a fresh durable store over the segment and times its first
// Store.Search: a cold search, store open and reload included.
func (d *deployment) probeSegments(root string, rounds int) (*segmentProbe, error) {
	t := d.in.tenants[0]
	v := d.current[0]
	edb := d.dbs[0][v]
	meta := segment.Meta{Name: t.name, RingDegree: params.N, Modulus: params.Q, Chunks: len(edb.Chunks),
		BitLen: edb.BitLen, NumSegments: edb.NumSegments}
	p := &segmentProbe{}
	for i := 0; i < rounds; i++ {
		dir, err := tempDir(root, "segprobe-")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, segment.FileName(t.name))
		start := time.Now()
		if err := segment.Write(path, meta, edb); err != nil {
			return nil, err
		}
		p.writeMs = append(p.writeMs, ms(time.Since(start)))
		start = time.Now()
		seg, err := segment.Open(path, params.N, params.Q)
		if err != nil {
			return nil, err
		}
		p.openMs = append(p.openMs, ms(time.Since(start)))
		seg.Close()
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		p.bytesPerDBByte = float64(fi.Size()) / float64(len(t.versions[v]))
		if err := d.coldSearch(p, dir, 0, i%len(t.queries)); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (d *deployment) coldSearch(p *segmentProbe, dir string, tenant, query int) error {
	t := d.in.tenants[tenant]
	st, err := proto.NewStoreWithOptions(params, core.EngineSpec{}, proto.StoreOptions{DataDir: dir})
	if err != nil {
		return err
	}
	defer st.Close()
	start := time.Now()
	ir, err := st.Search(t.name, d.queries[tenant][query])
	took := ms(time.Since(start))
	if err != nil {
		return fmt.Errorf("cold search: %w", err)
	}
	if w := checkCandidates(t, d.current[tenant], query, ir.Candidates); w != "" {
		p.wrong = append(p.wrong, "cold "+w)
	}
	ir.Release()
	p.coldMs = append(p.coldMs, took)
	return nil
}

// probeDecodeAllocs measures heap allocations per proto.DecodeNamedQuery
// on every distinct query payload, with the server idle.
func (d *deployment) probeDecodeAllocs(reps int) (allocs, kib []float64, err error) {
	var before, after runtime.MemStats
	for ti, t := range d.in.tenants {
		for qi := range t.queries {
			payload := proto.EncodeNamedQuery(t.name, d.queries[ti][qi], params)
			runtime.ReadMemStats(&before)
			for i := 0; i < reps; i++ {
				if _, _, err := proto.DecodeNamedQuery(payload, params); err != nil {
					return nil, nil, err
				}
			}
			runtime.ReadMemStats(&after)
			allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(reps))
			kib = append(kib, float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(reps))
		}
	}
	return allocs, kib, nil
}
