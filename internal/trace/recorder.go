package trace

import (
	"sync/atomic"
	"time"

	"ciphermatch/internal/metrics"
)

// DefaultSlowThreshold is the slow-query capture threshold used when a
// Recorder is built with no explicit threshold: generous enough that a
// healthy in-memory search never trips it, tight enough that a reload
// stall or a saturated coalescing window does.
const DefaultSlowThreshold = 50 * time.Millisecond

// Recorder owns the server's trace retention and aggregation: every
// finished trace goes into the recent ring, traces at or over the slow
// threshold additionally go into the slow ring (which therefore keeps
// slow-query history long after fast traffic has lapped the recent
// ring), and per-stage latencies fold into the metrics registry's
// stage histograms. Finish is the only write entry point and costs
// zero heap allocations.
type Recorder struct {
	recent *Ring
	slow   *Ring
	slowNS atomic.Int64
	seq    atomic.Uint64

	// Metric handles are resolved once in BindMetrics and recorded
	// through lock-free; a nil-bound recorder just skips aggregation.
	stageHists [NumStages]*metrics.Histogram
	totalHist  *metrics.Histogram
	slowTotal  *metrics.Counter
	tenantDur  *metrics.HistogramVec
}

// NewRecorder creates a recorder with the given ring capacity (rounded
// up to a power of two; the slow ring gets the same capacity) and
// slow-query threshold (<= 0 selects DefaultSlowThreshold).
func NewRecorder(capacity int, slowThreshold time.Duration) *Recorder {
	if slowThreshold <= 0 {
		slowThreshold = DefaultSlowThreshold
	}
	r := &Recorder{recent: NewRing(capacity), slow: NewRing(capacity)}
	r.slowNS.Store(int64(slowThreshold))
	return r
}

// BindMetrics wires the recorder's aggregation into a registry:
//
//	stage_latency_ns{stage=...}   per-stage latency histograms
//	request_latency_ns            end-to-end latency histogram
//	traces_slow_total             slow-threshold captures
//	tenant_latency_ns{db=...}     per-tenant end-to-end latency (the
//	                              "duration" leg of the RED metrics)
//
// Handles are cached here so Finish never touches a registry map.
func (r *Recorder) BindMetrics(reg *metrics.Registry) {
	sv := reg.HistogramVec("stage_latency_ns", "stage")
	for i := 0; i < NumStages; i++ {
		r.stageHists[i] = sv.With(Stage(i).String())
	}
	r.totalHist = reg.Histogram("request_latency_ns")
	r.slowTotal = reg.Counter("traces_slow_total")
	r.tenantDur = reg.HistogramVec("tenant_latency_ns", "db")
}

// TenantHistogram returns the cached per-tenant latency histogram for
// a database name, or nil when metrics are unbound. Callers (the
// connection handler) cache the result per tenant so Finish itself
// never performs the labeled lookup.
func (r *Recorder) TenantHistogram(db string) *metrics.Histogram {
	if r.tenantDur == nil {
		return nil
	}
	return r.tenantDur.With(db)
}

// SlowThreshold returns the current slow-capture threshold.
func (r *Recorder) SlowThreshold() time.Duration {
	return time.Duration(r.slowNS.Load())
}

// SetSlowThreshold adjusts the slow-capture threshold at runtime.
func (r *Recorder) SetSlowThreshold(d time.Duration) {
	if d <= 0 {
		d = DefaultSlowThreshold
	}
	r.slowNS.Store(int64(d))
}

// NextID returns a fresh server-assigned trace ID for requests that
// arrived without the client trace extension.
func (r *Recorder) NextID() uint64 { return r.seq.Add(1) }

// Finish seals a trace and retains it: a completion sequence number is
// assigned, the trace is copied into the recent ring (and the slow ring
// when TotalNS meets the threshold), and stage/total latencies are
// folded into the bound histograms. The trace value stays caller-owned
// and reusable; tenantHist may be nil. Zero heap allocations.
func (r *Recorder) Finish(t *Trace, tenantHist *metrics.Histogram) {
	t.Seq = r.seq.Add(1)
	r.recent.Put(t)
	slow := t.TotalNS >= r.slowNS.Load()
	if slow {
		r.slow.Put(t)
	}
	if r.totalHist == nil {
		return
	}
	if slow {
		r.slowTotal.Inc()
	}
	for i := 0; i < NumStages; i++ {
		if ns := t.StageNS[i]; ns > 0 {
			r.stageHists[i].Observe(ns)
		}
	}
	r.totalHist.Observe(t.TotalNS)
	if tenantHist != nil {
		tenantHist.Observe(t.TotalNS)
	}
}

// ObserveStage folds one stage latency into its stage histogram without
// a trace: the connection handler times the reply write after the
// request's trace is already published. Zero heap allocations; a no-op
// on an unbound recorder.
func (r *Recorder) ObserveStage(s Stage, ns int64) {
	if h := r.stageHists[s]; h != nil && ns > 0 {
		h.Observe(ns)
	}
}

// Recent returns up to max recent traces, newest first (max <= 0 means
// the whole ring).
func (r *Recorder) Recent(max int) []Trace { return r.recent.Snapshot(max) }

// Slow returns up to max slow-threshold captures, newest first.
func (r *Recorder) Slow(max int) []Trace { return r.slow.Snapshot(max) }

// Counts reports how many traces have been recorded in total and how
// many tripped the slow threshold.
func (r *Recorder) Counts() (total, slow uint64) {
	return r.recent.Len(), r.slow.Len()
}
