// Command servebench is the repository's end-to-end serving benchmark.
// It drives one in-process proto.Server over loopback, closed loop, with
// the inputs of one workload made from a seed, checks every answer
// against core.ExpectedCandidates of the plaintext, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through its wrapper:
//
//	bash servebench/run.sh --workload dna-scan --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// again with every request traced and reports the per-layer metrics.
// See README.md for the workloads and what each metric watches.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ciphermatch/internal/metrics"
	"ciphermatch/internal/ring"
)

// config is one benchmark run.
type config struct {
	workload    string
	seed        int64
	seconds     float64
	trace       bool
	out         string // directory for temporary data and span files
	setupRounds int    // set-ups per run; setup_s is their median
	uploads     int    // fewest upload samples; re-uploads after the timed phase make up the rest
	probeRounds int    // segment and cold-search probe rounds (traced run)
	maxProbe    int    // store-probe calls (traced run)
}

func defaultConfig() config {
	return config{setupRounds: 3, uploads: 64, probeRounds: 5, maxProbe: 400}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind the value, 0 when not a sample statistic
}

// report is one run's outcome.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	info  []string // run description, printed before the metrics
	wrong []string
	errs  []string
	spans string // span file written by a traced run
}

func (r *report) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, n: n}
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: dna-scan, records-hot or tenant-churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "servebench"), "directory for temporary data and span files")
	flag.Parse()
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "servebench: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(1)
	}
	os.Exit(finish(os.Stdout, rep))
}

// finish prints the report and returns the exit code: 1 when any
// answer was wrong.
func finish(w io.Writer, rep *report) int {
	printReport(w, rep)
	if !rep.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep *report) {
	for _, l := range rep.info {
		fmt.Fprintln(w, "#", l)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		if m.n > 0 {
			fmt.Fprintf(w, "%-40s %14.6g %-6s n=%d\n", name, m.Value, m.Unit, m.n)
		} else {
			fmt.Fprintf(w, "%-40s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	for _, e := range rep.errs {
		fmt.Fprintln(w, "# error:", e)
	}
	for _, e := range rep.wrong {
		fmt.Fprintln(w, "# WRONG:", e)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		panic(err) // run admits only finite values, which always marshal
	}
	fmt.Fprintln(w, string(line))
}

// run sets the workload up cfg.setupRounds times, keeps the last
// deployment, and measures it.
func run(cfg config) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	in, err := makeInputs(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	d, setups, err := setUpRounds(in, cfg)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return d.measure(cfg, setups)
}

// setUpRounds sets the workload up cfg.setupRounds times and returns
// the last deployment with the samples of every set-up.
func setUpRounds(in *inputs, cfg config) (*deployment, *setupSamples, error) {
	var setups setupSamples
	var d *deployment
	for i := 0; i < cfg.setupRounds; i++ {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = setUp(in, filepath.Join(cfg.out, "tmp")); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(d.setup)
	}
	return d, &setups, nil
}

// measure runs the timed phases of cfg on d and derives the report;
// any wrong answer makes it incorrect.
func (d *deployment) measure(cfg config, setups *setupSamples) (*report, error) {
	rep := &report{Metrics: map[string]metric{}}
	rep.info = []string{
		fmt.Sprintf("servebench workload=%s seed=%d seconds=%g trace=%v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace),
		fmt.Sprintf("kernel=%s GOMAXPROCS=%d nproc=%d go=%s", ring.ActiveKernel(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()),
		fmt.Sprintf("inputs sha256=%s", d.inputsDigest(1000)),
		fmt.Sprintf("set-ups: wall %v s, cpu %v s", setups.wall, setups.cpu),
	}
	streams := make([]func() op, len(d.conns))
	for i := range streams {
		streams[i] = d.in.opStream(i)
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var err error
	if cfg.trace {
		err = d.measureLayers(cfg, rep, streams, dur, filepath.Join(cfg.out, "tmp"), setups)
	} else {
		err = d.measureEndToEnd(cfg, rep, streams, dur, setups)
	}
	if err != nil {
		return nil, err
	}
	for name, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value (no samples)", name)
		}
	}
	rep.Correct = len(rep.wrong) == 0
	return rep, nil
}

// tally folds a phase's operation counts and problems into the report.
func (rep *report) tally(res *loopResult) {
	rep.Attempted += res.attempted
	rep.Failed += res.failed
	rep.wrong = append(rep.wrong, res.wrong...)
	rep.errs = append(rep.errs, res.errs...)
}

// measureEndToEnd is the untraced run: the end-to-end metrics. Apart
// from latency_p50_nosteal_ms they are CPU time and bytes; the
// wall-clock figures are printed with them (see README.md on steal
// time).
func (d *deployment) measureEndToEnd(cfg config, rep *report, streams []func() op, dur time.Duration, setups *setupSamples) error {
	cpu0 := cpuTime()
	steal0, ncpu := stealSeconds()
	res := d.runLoop(dur, streams, false)
	steal1, _ := stealSeconds()
	cpu, steal := cpuTime()-cpu0, steal1-steal0
	rep.tally(res)
	if len(res.searchLats) == 0 {
		return fmt.Errorf("no query completed (%d failed): %v", res.failed, res.errs)
	}
	n := len(res.searchLats)
	lats := durationsMs(res.searchLats)
	// To first order, the share of the host's CPU time the hypervisor
	// withheld during the phase stretches a round trip by
	// 1/(1-stolen); taking it out keeps the wait the program itself
	// adds, such as the coalescing window, and drops most of the wait
	// the host imposed. README.md shows where it overshoots.
	stolen := 0.0
	if ncpu > 0 {
		stolen = steal / (res.elapsed.Seconds() * float64(ncpu))
	}
	p50 := quantile(lats, 0.5)
	rep.set("latency_p50_nosteal_ms", p50*(1-stolen), "ms", n)
	rep.set("cpu_ms_per_query", ms(cpu)/float64(n), "ms", n)
	rep.set("setup_s", median(setups.cpu), "s", len(setups.cpu))
	rep.set("prepare_cpu_ms", median(setups.prepareCPUMs), "ms", len(setups.prepareCPUMs))
	rep.set("query_bytes", float64(res.queryBytes)/float64(n), "bytes", n)
	rep.set("db_expansion", float64(d.srv.Store().ResidentBytes())/float64(d.residentPlainBytes()), "ratio", 0)

	// Only tenant-churn uploads in its traffic. Top the samples up to
	// cfg.uploads with re-uploads after the timed phase, so the upload
	// figures exist on every workload.
	uploads, uploadsCPU := res.uploadLats, res.uploadCPU
	for i := len(uploads); i < cfg.uploads; i++ {
		r := d.do(d.conns[0], op{kind: opUpload, tenant: 0})
		rep.Attempted++
		if r.err != nil {
			rep.Failed++
			rep.errs = append(rep.errs, r.err.Error())
			continue
		}
		uploads, uploadsCPU = append(uploads, r.lat), append(uploadsCPU, r.cpu)
	}
	if len(uploads) == 0 {
		return fmt.Errorf("no upload completed")
	}
	rep.set("upload_cpu_ms", median(durationsMs(uploadsCPU)), "ms", len(uploadsCPU))

	rep.info = append(rep.info,
		fmt.Sprintf("wall clock: qps=%.6g (n=%d) latency_p50_ms=%.6g latency_p99_ms=%.6g upload_p50_ms=%.6g (n=%d) prepare_ms=%.6g (n=%d) setup_s=%.6g (n=%d)",
			res.qps(), n, p50, quantile(lats, 0.99), median(durationsMs(uploads)), len(uploads),
			median(setups.prepareMs), len(setups.prepareMs), median(setups.wall), len(setups.wall)),
		fmt.Sprintf("cpu busy=%.3g of %d CPUs, steal=%.3gs over %.3gs on %d CPUs (stolen share %.3g)",
			cpu.Seconds()/res.elapsed.Seconds(), runtime.NumCPU(), steal, res.elapsed.Seconds(), ncpu, stolen),
		// error_rate is carried by the result line's attempted and
		// failed counts; it is 0 on a healthy run, so it is no metric.
		fmt.Sprintf("error_rate=%g (%d failed of %d attempted)",
			float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted))
	return nil
}

// cpuTime returns the process's user and system CPU time so far.
func cpuTime() time.Duration { return rusage(syscall.RUSAGE_SELF) }

// threadCPUTime returns the calling thread's user and system CPU time
// so far; callers lock their goroutine to the thread.
func threadCPUTime() time.Duration { return rusage(syscall.RUSAGE_THREAD) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		panic(err) // RUSAGE_SELF and RUSAGE_THREAD cannot fail on a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealSeconds returns the CPU time the hypervisor has withheld from
// this host so far, summed over its CPUs, and the number of CPUs, both
// from /proc/stat; 0 and 0 where that is not available.
func stealSeconds() (float64, int) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	lines := strings.Split(string(raw), "\n")
	f := strings.Fields(lines[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	ncpu := 0
	for _, l := range lines[1:] {
		if strings.HasPrefix(l, "cpu") {
			ncpu++
		}
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100, ncpu // USER_HZ
}

// serverCounters reads the serving counters through Conn.ServerStats.
func (d *deployment) serverCounters() (map[string]float64, error) {
	kvs, err := d.conns[0].ServerStats()
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, name := range []string{"queries_total", "queries_rejected_total", "coalesced_queries_total",
		"query_decodes_saved_total", "chunk_streams_total", "batch_occupancy_sum", "batch_occupancy_count",
		"store_reloads_total", "store_evictions_total"} {
		v, _ := metrics.Lookup(kvs, name)
		out[name] = float64(v)
	}
	return out, nil
}

// measureLayers is the traced run. Half the time runs untraced (for
// the counters, the runtime figures and the tracing-overhead baseline),
// half with an rpc span per request; then every traced request is
// replayed layer by layer, the store is timed directly, and the
// segment layer and query decode are probed.
func (d *deployment) measureLayers(cfg config, rep *report, streams []func() op, dur time.Duration, tmp string, setups *setupSamples) error {
	half := dur / 2
	c0, err := d.serverCounters()
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	plain := d.runLoop(half, streams, false)
	runtime.ReadMemStats(&m1)
	c1, err := d.serverCounters()
	if err != nil {
		return err
	}
	rep.tally(plain)
	tr := &tracer{base: time.Now()}
	traced := d.runLoop(half, streams, true)
	rep.tally(traced)
	if len(plain.searchLats) == 0 || len(traced.spans) == 0 {
		return fmt.Errorf("no query completed: %v", append(plain.errs, traced.errs...))
	}
	nq := float64(len(plain.searchLats))
	delta := func(name string) float64 { return c1[name] - c0[name] }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	rs, wrong, err := d.replay(tr, traced.spans)
	if err != nil {
		return err
	}
	rep.wrong = append(rep.wrong, wrong...)
	layers := tr.layerTimes()
	perLayer := map[string][]float64{}
	var overhead, indexShare, gbps []float64
	for i, r := range traced.spans {
		lt := layers[r.req]
		below := time.Duration(0)
		for _, name := range replayLayers {
			perLayer[name] = append(perLayer[name], us(lt[name]))
			below += lt[name]
		}
		overhead = append(overhead, us(lt["rpc"]-below))
		indexShare = append(indexShare, float64(lt["index"])/float64(lt["rpc"]))
		// Bytes of the c0 plane streamed (8-byte coefficients) per ns.
		gbps = append(gbps, rs.chunkStreams[i]*float64(params.N)*8/float64(lt["stream"]))
	}
	n := len(traced.spans)
	rep.set("core.encrypt_ms", median(setups.encryptMs), "ms", len(setups.encryptMs))
	rep.set("proto.encode_query_us", median(perLayer["encode"]), "us", n)
	rep.set("proto.decode_query_us", median(perLayer["decode"]), "us", n)
	rep.set("proto.encode_result_us", median(perLayer["encode_result"]), "us", n)
	rep.set("proto.reply_bytes", float64(traced.replyBytes)/float64(n), "bytes", n)
	rep.set("core.stream_us", median(perLayer["stream"]), "us", n)
	rep.set("core.stream_gbps", median(gbps), "GB/s", n)
	rep.set("core.chunk_streams_per_query", mean(rs.chunkStreams), "count", n)
	rep.set("core.index_us", median(perLayer["index"]), "us", n)
	rep.set("core.index_share", median(indexShare), "ratio", n)
	rep.set("core.candidates_per_query", mean(rs.candidates), "count", n)
	rep.set("core.hit_bits_per_query", mean(rs.hitBits), "count", n)
	rep.set("proto.rpc_overhead_us", median(overhead), "us", n)

	queries := delta("queries_total")
	rep.set("proto.coalesce.occupancy", ratio(delta("batch_occupancy_sum"), delta("batch_occupancy_count")), "count", 0)
	rep.set("proto.coalesce.rate", ratio(delta("coalesced_queries_total"), queries), "ratio", 0)
	rep.set("proto.coalesce.decodes_saved_ratio", ratio(delta("query_decodes_saved_total"), queries), "ratio", 0)
	rep.set("proto.coalesce.streams_per_query", ratio(delta("chunk_streams_total"), queries), "count", 0)
	rep.set("proto.rejected_ratio", ratio(delta("queries_rejected_total"), queries), "ratio", 0)
	rep.set("proto.store.resident_hit_ratio", 1-ratio(delta("store_reloads_total"), queries), "ratio", 0)
	rep.set("proto.store.evictions_per_query", ratio(delta("store_evictions_total"), queries), "count", 0)
	rep.set("runtime.alloc_kb_per_query", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/nq, "KiB", 0)
	rep.set("runtime.gc_pause_ms_per_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/plain.elapsed.Seconds(), "ms/s", 0)
	rep.set("bench.trace_overhead_pct", 100*(plain.qps()-traced.qps())/plain.qps(), "%", 0)

	sp, err := d.probeStore(traced.spans, cfg.maxProbe)
	if err != nil {
		return err
	}
	rep.wrong = append(rep.wrong, sp.wrong...)
	seg, err := d.probeSegments(tmp, cfg.probeRounds)
	if err != nil {
		return err
	}
	rep.wrong = append(rep.wrong, seg.wrong...)
	rep.set("proto.store.warm_search_ms", median(sp.warmMs), "ms", len(sp.warmMs))
	rep.set("proto.store.cold_search_ms", median(seg.coldMs), "ms", len(seg.coldMs))
	rep.set("segment.write_ms", median(seg.writeMs), "ms", len(seg.writeMs))
	rep.set("segment.open_ms", median(seg.openMs), "ms", len(seg.openMs))
	rep.set("segment.bytes_per_db_byte", seg.bytesPerDBByte, "ratio", 0)

	allocs, kib, err := d.probeDecodeAllocs(4)
	if err != nil {
		return err
	}
	rep.set("proto.decode_query_allocs", median(allocs), "count", len(allocs))
	rep.set("proto.decode_query_kb", median(kib), "KiB", len(kib))

	rep.spans = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.writeFile(rep.spans); err != nil {
		return err
	}
	rep.info = append(rep.info, fmt.Sprintf("spans=%s (%d spans, %d requests)", rep.spans, len(tr.spans), n))
	return nil
}
