package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ciphermatch/internal/bfv"
	"ciphermatch/internal/core"
	"ciphermatch/internal/proto"
)

var params = bfv.ParamsPaper()

// Serving configuration under test, the same for every workload.
const (
	coalesceWindow   = 2 * time.Millisecond
	coalesceMaxBatch = 16
)

// countingConn counts the bytes a client connection writes and reads at
// the socket.
type countingConn struct {
	net.Conn
	written, read atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.written.Add(int64(n))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.read.Add(int64(n))
	return n, err
}

type clientConn struct {
	*proto.Conn
	sock *countingConn
}

// deployment is one running server with its data owners' databases
// uploaded and their queries prepared.
type deployment struct {
	in        *inputs
	srv       *proto.Server
	ln        net.Listener
	serveDone chan struct{}
	dataDir   string
	conns     []*clientConn

	dbs     [][]*core.EncryptedDB // [tenant][version]
	queries [][]*core.Query       // [tenant][query]
	// current[t] is the version of tenant t last acknowledged by an
	// upload. Only tenant-churn uploads, from its single connection.
	current []int

	setup setupSamples
}

// setupSamples are the timings taken while setting up, in seconds per
// set-up and milliseconds per call.
type setupSamples struct {
	wall, cpu    []float64
	encryptMs    []float64
	prepareMs    []float64 // wall clock
	prepareCPUMs []float64 // CPU time of the preparing thread
}

func (s *setupSamples) add(o setupSamples) {
	s.wall = append(s.wall, o.wall...)
	s.cpu = append(s.cpu, o.cpu...)
	s.encryptMs = append(s.encryptMs, o.encryptMs...)
	s.prepareMs = append(s.prepareMs, o.prepareMs...)
	s.prepareCPUMs = append(s.prepareCPUMs, o.prepareCPUMs...)
}

// setUp starts the server and brings the workload to its first timed
// query: key generation, EncryptDatabase, upload, PrepareQuery and the
// fixed warm-up. tenant-churn keeps its segments in a fresh directory
// under tmp.
func setUp(in *inputs, tmp string) (*deployment, error) {
	start, cpu := time.Now(), cpuTime()
	d := &deployment{in: in, serveDone: make(chan struct{}), current: make([]int, len(in.tenants))}
	opts := proto.StoreOptions{}
	if in.churn {
		dir, err := tempDir(tmp, "churn-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
		opts = proto.StoreOptions{DataDir: dir, MemBudget: churnBudget}
	}
	srv, err := proto.NewServerWithServing(params, core.EngineSpec{}, opts,
		proto.CoalesceConfig{Window: coalesceWindow, MaxBatch: coalesceMaxBatch})
	if err != nil {
		d.removeData()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	d.srv = srv
	if d.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		srv.Close()
		d.removeData()
		return nil, err
	}
	go func() {
		defer close(d.serveDone)
		srv.Serve(d.ln) //nolint:errcheck // returns when the listener closes
	}()
	if err := d.build(); err != nil {
		d.close()
		return nil, err
	}
	d.setup.wall = []float64{time.Since(start).Seconds()}
	d.setup.cpu = []float64{(cpuTime() - cpu).Seconds()}
	return d, nil
}

func (d *deployment) build() error {
	for i := 0; i < d.in.conns; i++ {
		nc, err := net.Dial("tcp", d.ln.Addr().String())
		if err != nil {
			return err
		}
		sock := &countingConn{Conn: nc}
		d.conns = append(d.conns, &clientConn{Conn: proto.NewConn(sock, params), sock: sock})
	}
	for _, t := range d.in.tenants {
		cfg := core.Config{Params: params, AlignBits: t.align, Mode: core.ModeSeededMatch}
		client, err := core.NewClient(cfg, seededSource(d.in.workload, d.in.seed, "owner/"+t.name))
		if err != nil {
			return err
		}
		var dbs []*core.EncryptedDB
		for _, data := range t.versions {
			start := time.Now()
			edb, err := client.EncryptDatabase(data, t.bitLen)
			if err != nil {
				return err
			}
			d.setup.encryptMs = append(d.setup.encryptMs, ms(time.Since(start)))
			dbs = append(dbs, edb)
		}
		d.dbs = append(d.dbs, dbs)
		if err := d.conns[0].UploadDB(t.name, core.EngineSpec{}, dbs[0]); err != nil {
			return fmt.Errorf("uploading %s: %w", t.name, err)
		}
		qs, err := d.prepare(client, t)
		if err != nil {
			return err
		}
		d.queries = append(d.queries, qs)
	}
	warm := d.in.warmupOps()
	errs := make([]error, len(d.conns))
	var wg sync.WaitGroup
	for i, c := range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range warm {
				if r := d.do(c, o); r.err != nil || r.wrong != "" {
					errs[i] = fmt.Errorf("warm-up: %v%s", r.err, r.wrong)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepare runs PrepareQuery for every query of t. Its CPU time is the
// calling thread's, so garbage-collection workers running beside it on
// other threads are not charged to it.
func (d *deployment) prepare(client *core.Client, t *tenantInput) ([]*core.Query, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var qs []*core.Query
	for _, qb := range t.queries {
		start, cpu := time.Now(), threadCPUTime()
		q, err := client.PrepareQuery(qb, t.queryBits, t.bitLen)
		if err != nil {
			return nil, err
		}
		d.setup.prepareMs = append(d.setup.prepareMs, ms(time.Since(start)))
		d.setup.prepareCPUMs = append(d.setup.prepareCPUMs, ms(threadCPUTime()-cpu))
		qs = append(qs, q)
	}
	return qs, nil
}

// close stops every connection, drains and stops the server, and
// removes its data directory.
func (d *deployment) close() {
	for _, c := range d.conns {
		c.Close()
	}
	d.ln.Close()
	d.srv.Shutdown() //nolint:errcheck // nothing to report at teardown
	<-d.serveDone
	d.removeData()
}

func (d *deployment) removeData() {
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// opResult is the outcome of one operation.
type opResult struct {
	start        time.Time
	lat          time.Duration
	cpu          time.Duration // process CPU time during an upload
	wrote, readB int64         // socket bytes of this operation
	err          error         // the operation failed (error, overload, fault)
	wrong        string        // the operation answered, and the answer is wrong
	version      int           // table version the answer was checked against
}

// do runs one operation on c and checks its answer against the
// plaintext ground truth of the version last uploaded.
func (d *deployment) do(c *clientConn, o op) opResult {
	t := d.in.tenants[o.tenant]
	w0, r0 := c.sock.written.Load(), c.sock.read.Load()
	r := opResult{start: time.Now()}
	switch o.kind {
	case opUpload:
		next := (d.current[o.tenant] + 1) % len(d.dbs[o.tenant])
		cpu := cpuTime()
		r.err = c.UploadDB(t.name, core.EngineSpec{}, d.dbs[o.tenant][next])
		r.lat, r.cpu = time.Since(r.start), cpuTime()-cpu
		if r.err == nil {
			d.current[o.tenant] = next
		}
	default:
		var got []int
		got, r.err = c.Search(t.name, d.queries[o.tenant][o.query])
		r.lat = time.Since(r.start)
		r.version = d.current[o.tenant]
		if r.err == nil {
			r.wrong = checkCandidates(t, r.version, o.query, got)
		}
	}
	r.wrote, r.readB = c.sock.written.Load()-w0, c.sock.read.Load()-r0
	return r
}

// checkCandidates compares a reply with core.ExpectedCandidates of the
// plaintext; it returns "" when they agree.
func checkCandidates(t *tenantInput, version, query int, got []int) string {
	want := t.expect[version][query]
	if len(got) == len(want) {
		same := true
		for i := range got {
			if got[i] != want[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	return fmt.Sprintf("wrong answer: %s v%d query %d: got %d candidates %v, want %d %v",
		t.name, version, query, len(got), head(got), len(want), head(want))
}

func head(xs []int) []int {
	if len(xs) > 8 {
		return xs[:8]
	}
	return xs
}

// residentPlainBytes sums the plaintext bytes of the databases the
// store holds resident.
func (d *deployment) residentPlainBytes() int64 {
	var total int64
	for _, info := range d.srv.Store().List() {
		if info.State != proto.StateResident {
			continue
		}
		for ti, t := range d.in.tenants {
			if t.name == info.Name {
				total += int64(len(t.versions[d.current[ti]]))
			}
		}
	}
	return total
}

func tempDir(root, prefix string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }
