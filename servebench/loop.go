package main

import (
	"sync"
	"time"
)

// rpcSpan is one traced request: the round trip of Conn.Search.
type rpcSpan struct {
	req           uint64
	tenant, query int
	version       int
	start, end    time.Time
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	elapsed    time.Duration
	searchLats []time.Duration
	uploadLats []time.Duration
	uploadCPU  []time.Duration
	attempted  int
	failed     int
	wrong      []string
	errs       []string
	queryBytes int64 // socket bytes written by searches
	replyBytes int64 // socket bytes read by searches
	spans      []rpcSpan
}

func (r *loopResult) merge(o *loopResult) {
	r.searchLats = append(r.searchLats, o.searchLats...)
	r.uploadLats = append(r.uploadLats, o.uploadLats...)
	r.uploadCPU = append(r.uploadCPU, o.uploadCPU...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.wrong = append(r.wrong, o.wrong...)
	r.errs = append(r.errs, o.errs...)
	r.queryBytes += o.queryBytes
	r.replyBytes += o.replyBytes
	r.spans = append(r.spans, o.spans...)
}

func (r *loopResult) qps() float64 {
	return float64(len(r.searchLats)) / r.elapsed.Seconds()
}

// runLoop drives every connection closed loop for dur: each caller
// sends its next operation only after the previous one has answered.
// streams[i] is connection i's seeded operation sequence; phases of one
// run continue the same sequences. With traced set, every search is
// recorded as an rpc span under a request id unique in the phase.
func (d *deployment) runLoop(dur time.Duration, streams []func() op, traced bool) *loopResult {
	per := make([]*loopResult, len(d.conns))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &loopResult{}
			per[i] = res
			var seq uint64
			for time.Now().Before(deadline) {
				o := streams[i]()
				r := d.do(c, o)
				res.attempted++
				switch {
				case r.err != nil:
					res.failed++
					if len(res.errs) < 4 {
						res.errs = append(res.errs, r.err.Error())
					}
					continue
				case r.wrong != "":
					res.wrong = append(res.wrong, r.wrong)
					continue
				}
				if o.kind == opUpload {
					res.uploadLats = append(res.uploadLats, r.lat)
					res.uploadCPU = append(res.uploadCPU, r.cpu)
					continue
				}
				res.searchLats = append(res.searchLats, r.lat)
				res.queryBytes += r.wrote
				res.replyBytes += r.readB
				if traced {
					seq++
					res.spans = append(res.spans, rpcSpan{
						req:    uint64(i+1)<<32 | seq,
						tenant: o.tenant, query: o.query, version: r.version,
						start: r.start, end: r.start.Add(r.lat),
					})
				}
			}
		}()
	}
	wg.Wait()
	total := &loopResult{elapsed: time.Since(start)}
	for _, r := range per {
		total.merge(r)
	}
	return total
}
