package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/farm"
	"repro/internal/serve"
	"repro/internal/stonne/stats"
	"repro/internal/telemetry"
)

// The three sweep workloads share one row mix, one client and one server
// wiring; they differ in whether rows repeat (hit) and in how many nodes
// stand behind the front door (cluster).
type sweepMode int

const (
	modeMiss sweepMode = iota
	modeHit
	modeCluster
)

const (
	batchRows    = 32
	sweepClients = 2
)

// fcMappings are the four dense tile tuples [T_S, T_K, T_N] of the mix.
var fcMappings = [4][3]int{{1, 1, 1}, {4, 4, 1}, {8, 8, 1}, {16, 8, 1}}

// batchRequests builds batch b of the mix: 16 MAERI conv rows (C64 6x6 K64
// 3x3 pad 1; 2 operand seeds x 8 mappings T_K=1..8, so 8 rows share each
// operand set and the PackCache can work), 8 MAERI dense rows (K1024 N256;
// 2 seeds x 4 fc_mappings), 4 SIGMA conv rows at 50 % sparsity and 4 TPU
// conv rows. Every operand seed derives from (seed, b), so a new b is a new
// set of result-cache keys.
func batchRequests(seed int64, b int, trace bool) []serve.JobRequest {
	conv := &serve.ConvSpec{C: 64, H: 6, K: 64, R: 3, Pad: 1}
	dense := &serve.DenseSpec{K: 1024, N: 256}
	rows := make([]serve.JobRequest, 0, batchRows)
	g := 0
	for s := 0; s < 2; s++ {
		for tk := 1; tk <= 8; tk++ {
			rows = append(rows, serve.JobRequest{Arch: serve.ArchSpec{Controller: "maeri"}, Op: "conv2d", Conv: conv,
				Mapping: []int{1, 1, 1, tk, 1, 1, 1, 1}, Seed: opSeed(seed, b, g), Trace: trace})
		}
		g++
	}
	for s := 0; s < 2; s++ {
		for _, m := range fcMappings {
			rows = append(rows, serve.JobRequest{Arch: serve.ArchSpec{Controller: "maeri"}, Op: "dense", Dense: dense,
				FCMapping: m[:], Seed: opSeed(seed, b, g), Trace: trace})
		}
		g++
	}
	for s := 0; s < 4; s++ {
		rows = append(rows, serve.JobRequest{Arch: serve.ArchSpec{Controller: "sigma", Sparsity: 50}, Op: "conv2d", Conv: conv,
			Seed: opSeed(seed, b, g), Trace: trace})
		g++
	}
	for s := 0; s < 4; s++ {
		rows = append(rows, serve.JobRequest{Arch: serve.ArchSpec{Controller: "tpu"}, Op: "conv2d", Conv: conv,
			Seed: opSeed(seed, b, g), Trace: trace})
		g++
	}
	return rows
}

// ndjson encodes rows one JSON object per line.
func ndjson(rows []serve.JobRequest) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			panic(err) // JobRequest holds only ints, strings and slices of them
		}
	}
	return buf.Bytes()
}

// rowSig is what the oracle compares of a result row: the cache key, every
// simulated counter and the exact bits of the output checksum.
type rowSig struct {
	Key     string
	Stats   stats.Stats
	SumBits uint64
	Shape   [4]int
}

func sigOf(r *serve.JobResponse) rowSig {
	s := rowSig{Key: r.Key, SumBits: math.Float64bits(r.OutputSum)}
	if r.Stats != nil {
		s.Stats = *r.Stats
	}
	copy(s.Shape[:], r.OutputShape)
	return s
}

// node is one in-process bifrost-serve: a farm over a disk tier behind the
// retry wrapper, the HTTP API on a loopback listener, wired the way
// cmd/bifrost-serve wires -cache-dir (trace ring of 256, sweep journals
// under the cache directory).
type node struct {
	name string
	url  string
	fm   *farm.Farm
	api  *serve.Server
	http *http.Server
	repl *farm.ReplicatedStore
	done chan struct{}
}

var quietLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startNode serves api on ln until stop.
func startNode(name string, ln net.Listener, url string, fm *farm.Farm, api *serve.Server, repl *farm.ReplicatedStore) *node {
	n := &node{name: name, url: url, fm: fm, api: api, repl: repl, done: make(chan struct{}),
		http: &http.Server{Handler: api, ReadHeaderTimeout: 10 * time.Second}}
	go func() {
		defer close(n.done)
		n.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return n
}

// stop tears the node down once the clients are done: no request is in
// flight, so the listener and its connections are closed outright
// (Shutdown would wait out connections a client dialled but never used).
func (n *node) stop() {
	n.http.Close()
	<-n.done
	n.api.Close()
	n.fm.Close() // closes the disk tier, replicated or not
}

// newSoloNode builds the single-node server of sweep_miss_small and
// sweep_hit_mixed. memEntries > 0 bounds the memory tier.
func newSoloNode(dir string, workers, memEntries int) (*node, error) {
	ds, err := farm.NewDiskStore(dir, 0)
	if err != nil {
		return nil, err
	}
	fm := farm.New(workers,
		farm.WithMaxQueue(4096),
		farm.WithMaxEntries(memEntries),
		farm.WithDiskStore(farm.NewRetryStore(ds, farm.DefaultRetryPolicy())),
		farm.WithTraceRing(telemetry.NewTraceRing(256)))
	ln, url, err := listen()
	if err != nil {
		fm.Close()
		return nil, err
	}
	api := serve.NewServer(fm, serve.WithLogger(quietLog), serve.WithSweepDir(filepath.Join(dir, "sweeps")))
	return startNode("", ln, url, fm, api, nil), nil
}

// stack is a front door with the nodes behind it: one solo node, or a
// coordinator over two replicated worker nodes.
type stack struct {
	front   *node
	workers []*node // nil for a solo stack
	client  *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * sweepClients, IdleConnTimeout: time.Minute}}
}

func newSoloStack(dir string, memEntries int) (*stack, error) {
	n, err := newSoloNode(dir, runtime.GOMAXPROCS(0), memEntries)
	if err != nil {
		return nil, err
	}
	return &stack{front: n, client: newHTTPClient()}, nil
}

// newClusterStack builds cluster_sweep_r2's three nodes: two workers, each a
// 1-worker farm over DiskStore inside NewReplicatedStore(replicas=2)
// cross-wired through NewPeerStore+NewRetryStore, and a coordinator
// (WithPeers) that journals sweeps. Ring names are fixed ("node0",
// "node1") so key placement does not depend on the ports the kernel hands
// out.
func newClusterStack(dir string) (*stack, error) {
	const workers = 2
	lns := make([]net.Listener, workers)
	urls := make([]string, workers)
	for i := range lns {
		var err error
		if lns[i], urls[i], err = listen(); err != nil {
			return nil, err
		}
	}
	st := &stack{client: newHTTPClient()}
	peers := make([]serve.Peer, workers)
	for i := 0; i < workers; i++ {
		name := fmt.Sprintf("node%d", i)
		ndir := filepath.Join(dir, name)
		ds, err := farm.NewDiskStore(ndir, 0)
		if err != nil {
			return nil, err
		}
		var members []farm.ReplicaMember
		for j := 0; j < workers; j++ {
			if j != i {
				members = append(members, farm.ReplicaMember{Name: fmt.Sprintf("node%d", j),
					Store: farm.NewRetryStore(farm.NewPeerStore(urls[j]), farm.DefaultRetryPolicy())})
			}
		}
		repl := farm.NewReplicatedStore(farm.NewRetryStore(ds, farm.DefaultRetryPolicy()), name, 2, members)
		fm := farm.New(1, farm.WithMaxQueue(4096), farm.WithDiskStore(repl), farm.WithTraceRing(telemetry.NewTraceRing(256)))
		api := serve.NewServer(fm, serve.WithLogger(quietLog), serve.WithReplicatedStore(repl),
			serve.WithSweepDir(filepath.Join(ndir, "sweeps")))
		st.workers = append(st.workers, startNode(name, lns[i], urls[i], fm, api, repl))
		peers[i] = serve.Peer{Name: name, URL: urls[i]}
	}
	ln, url, err := listen()
	if err != nil {
		return nil, err
	}
	// The coordinator's own farm is only the fallback of last resort.
	fm := farm.New(runtime.GOMAXPROCS(0), farm.WithMaxQueue(4096))
	api := serve.NewServer(fm, serve.WithLogger(quietLog), serve.WithPeers(peers),
		serve.WithPeerProbes(5*time.Second), serve.WithSweepDir(filepath.Join(dir, "coordinator-sweeps")))
	st.front = startNode("coordinator", ln, url, fm, api, nil)
	return st, nil
}

func (s *stack) stop() {
	s.front.stop()
	for _, w := range s.workers {
		w.stop()
	}
	s.client.CloseIdleConnections()
}

// serving returns the nodes whose farms execute jobs.
func (s *stack) serving() []*node {
	if s.workers != nil {
		return s.workers
	}
	return []*node{s.front}
}

// owner returns the node that answered a row (by its peer name).
func (s *stack) owner(peer string) *node {
	for _, w := range s.workers {
		if w.name == peer {
			return w
		}
	}
	return s.front
}

// postBatch sends one NDJSON batch and decodes the streamed rows. It
// returns the rows, the time to the first row and an error for anything
// but a complete 2xx stream.
func (s *stack) postBatch(path string, body []byte) ([]serve.JobResponse, time.Duration, error) {
	start := time.Now()
	resp, err := s.client.Post(s.front.url+path, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		return nil, 0, fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	rows := make([]serve.JobResponse, 0, batchRows)
	var first time.Duration
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		if first == 0 {
			first = time.Since(start)
		}
		var r serve.JobResponse
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, 0, fmt.Errorf("%s: decoding row %d: %w", path, len(rows), err)
		}
		rows = append(rows, r)
	}
	return rows, first, sc.Err()
}

// simulate posts one job to a node's /simulate.
func simulate(client *http.Client, url string, req serve.JobRequest) (serve.JobResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobResponse{}, err
	}
	resp, err := client.Post(url+"/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return serve.JobResponse{}, err
	}
	defer resp.Body.Close()
	var r serve.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK || r.Error != "" {
		return r, fmt.Errorf("/simulate: HTTP %d %s", resp.StatusCode, r.Error)
	}
	return r, nil
}

// sweepEnv is the environment of the three sweep workloads.
type sweepEnv struct {
	o    options
	mode sweepMode
	sc   *scratch
	st   *stack

	// hit: the working set's encoded batches (untraced and traced) and the
	// rows computed for them during set-up; order is each client's seeded
	// replay order.
	bodies, tracedBodies [][]byte
	expected             [][]rowSig
	order                [][]int
	// cluster: the rows a solo single-node server computed for pass 0.
	solo [][]rowSig

	mu       sync.Mutex
	pass0    [sweepClients][]serve.JobResponse
	peerRows map[string]float64
	errRows  float64
	phases   map[string][]float64 // traced phase samples, milliseconds
}

func newSweepEnv(o options, sc *scratch, mode sweepMode) (*sweepEnv, error) {
	e := &sweepEnv{o: o, mode: mode, sc: sc, peerRows: map[string]float64{}, phases: map[string][]float64{}}
	var err error
	switch mode {
	case modeMiss:
		e.st, err = newSoloStack(sc.dir("miss"), 0)
	case modeHit:
		err = e.setupHit()
	case modeCluster:
		err = e.setupCluster()
	}
	if err != nil {
		e.close()
		return nil, err
	}
	if o.Preset.WarmUp {
		// One warm-up pass on batches the window never uses (hit: batches it
		// does use, which is the point).
		for c := 0; c < sweepClients; c++ {
			if out := e.request(c, -1, nil); out.failed > 0 {
				e.close()
				return nil, fmt.Errorf("warm-up pass failed %d of %d rows", out.failed, out.ops)
			}
		}
	}
	return e, nil
}

// soloRows computes batches 0..n-1 of the mix on a throwaway solo server
// over dir and returns every row's signature.
func soloRows(dir string, seed int64, n int) ([][]rowSig, error) {
	st, err := newSoloStack(dir, 0)
	if err != nil {
		return nil, err
	}
	defer st.stop()
	sigs := make([][]rowSig, n)
	for b := range sigs {
		rows, _, err := st.postBatch("/batch", ndjson(batchRequests(seed, b, false)))
		if err == nil && len(rows) != batchRows {
			err = fmt.Errorf("%d rows", len(rows))
		}
		for i := 0; err == nil && i < len(rows); i++ {
			if rows[i].Error != "" {
				err = fmt.Errorf("row %d: %s", i, rows[i].Error)
			}
			sigs[b] = append(sigs[b], sigOf(&rows[i]))
		}
		if err != nil {
			return nil, fmt.Errorf("solo server, batch %d: %w", b, err)
		}
	}
	return sigs, nil
}

// setupHit pre-computes the working set into the disk tier through a
// throwaway server, then opens the measured server on the same directory
// with a bounded, empty memory tier: the window's first touch of a row is a
// disk hit, later ones memory hits until the LRU evicts it.
func (e *sweepEnv) setupHit() error {
	dir := e.sc.dir("hit")
	n := e.o.Preset.HitBatches
	var err error
	if e.expected, err = soloRows(dir, e.o.Seed, n); err != nil {
		return fmt.Errorf("pre-computing the working set: %w", err)
	}
	e.bodies, e.tracedBodies, e.order = make([][]byte, n), make([][]byte, n), make([][]int, sweepClients)
	for b := 0; b < n; b++ {
		e.bodies[b] = ndjson(batchRequests(e.o.Seed, b, false))
		e.tracedBodies[b] = ndjson(batchRequests(e.o.Seed, b, true))
	}
	for c := range e.order {
		rng := rand.New(rand.NewSource(opSeed(e.o.Seed, 0, 900+c)))
		e.order[c] = make([]int, 4096)
		for i := range e.order[c] {
			e.order[c][i] = rng.Intn(n)
		}
	}
	e.st, err = newSoloStack(dir, e.o.Preset.MemEntries)
	return err
}

// setupCluster computes pass 0 on a solo single-node server first — the
// oracle the cluster's pass-0 output must equal — then builds the cluster.
func (e *sweepEnv) setupCluster() error {
	var err error
	if e.solo, err = soloRows(e.sc.dir("solo"), e.o.Seed, sweepClients); err != nil {
		return fmt.Errorf("solo oracle: %w", err)
	}
	e.st, err = newClusterStack(e.sc.dir("cluster"))
	return err
}

func (e *sweepEnv) clients() int      { return sweepClients }
func (e *sweepEnv) kinds() int        { return 1 }
func (e *sweepEnv) minRequests() int  { return 1 }
func (e *sweepEnv) passRequests() int { return 1 }

func (e *sweepEnv) close() {
	if e.st != nil {
		e.st.stop()
		e.st = nil
	}
}

// batchIndex maps request i of client c onto a batch number; pass p is the
// batches {p*clients + c}. The warm-up pass (i = -1) uses numbers the window
// never reaches.
func batchIndex(c, i int) int {
	if i < 0 {
		return 900_000 + c
	}
	return i*sweepClients + c
}

func (e *sweepEnv) request(c, i int, tr *tracer) outcome {
	var body []byte
	path := "/batch"
	b := batchIndex(c, i)
	switch e.mode {
	case modeHit:
		if i < 0 {
			b = c % len(e.bodies)
		} else {
			b = e.order[c][i%len(e.order[c])]
		}
		body = e.bodies[b]
		if tr != nil {
			body = e.tracedBodies[b]
		}
	case modeCluster:
		path = fmt.Sprintf("/batch?sweep_id=s%d-p%d-c%d", e.o.Seed, i, c)
		fallthrough
	default:
		body = ndjson(batchRequests(e.o.Seed, b, tr != nil))
	}

	start := time.Now()
	rows, first, err := e.st.postBatch(path, body)
	total := time.Since(start)
	out := outcome{ops: batchRows, firstRow: first}
	if err != nil || len(rows) != batchRows {
		out.failed = batchRows
		return out
	}
	var errRows float64
	for r := range rows {
		row := &rows[r]
		bad := row.Error != "" || row.Stats == nil || row.Key == ""
		if !bad && e.mode == modeHit {
			// Every replayed row must be the row computed during set-up, and
			// must come from a cache tier.
			bad = sigOf(row) != e.expected[b][r] || !row.Cached
		}
		if bad {
			out.failed++
		}
		if row.Error != "" {
			errRows++
		}
	}
	e.mu.Lock()
	e.errRows += errRows
	for r := range rows {
		if rows[r].Peer != "" {
			e.peerRows[rows[r].Peer]++
		}
	}
	if i == 0 {
		e.pass0[c] = rows
	}
	if tr != nil {
		e.recordSpans(tr, rows, start, total)
	}
	e.mu.Unlock()
	return out
}

// recordSpans turns a traced batch into a root span with one child per row
// and, under it, the farm phases the server echoed for "trace": true. The
// server reports durations, not instants, so the children are laid end to
// end from the row's start. Called with e.mu held.
func (e *sweepEnv) recordSpans(tr *tracer, rows []serve.JobResponse, start time.Time, total time.Duration) {
	op := tr.newOp()
	root := tr.add(0, op, "request", "client POST /batch", "serve", start, total)
	for r := range rows {
		row := &rows[r]
		rid := tr.add(root, op, "request", fmt.Sprintf("row %d", r), "serve", start, msDur(row.ElapsedMS))
		t := row.Trace
		if t != nil && t.Remote != nil {
			hop := tr.add(rid, op, "request", "coordinator hop to "+t.Peer, "serve", start, msDur(t.TotalMS))
			rid, t = hop, t.Remote
		}
		if t == nil {
			continue
		}
		at := start
		for _, ph := range []struct {
			name string
			ms   float64
		}{{"enqueue_wait", t.EnqueueWaitMS}, {"dedup", t.DedupMS}, {"mem_lookup", t.MemLookupMS},
			{"disk_lookup", t.DiskLookupMS}, {"compute", t.ComputeMS}, {"persist", t.PersistMS}} {
			if ph.ms <= 0 {
				continue
			}
			tr.add(rid, op, "request", "farm phase "+ph.name+" ("+t.Source+")", "farm", at, msDur(ph.ms))
			at = at.Add(msDur(ph.ms))
			e.phases[ph.name] = append(e.phases[ph.name], ph.ms)
		}
	}
}

func msDur(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func (e *sweepEnv) simTotals() simTotals {
	var t simTotals
	for c := range e.pass0 {
		for r := range e.pass0[c] {
			if s := e.pass0[c][r].Stats; s != nil {
				t.add(*s)
			}
		}
	}
	return t.over(1)
}

// oracleRows are the pass-0 rows checked against the reference engines: one
// or two of every row kind.
var oracleRows = []int{0, 7, 8, 16, 20, 24, 27, 28, 31}

func (e *sweepEnv) verify() (checked, bad int, notes []string) {
	for c := range e.pass0 {
		rows := e.pass0[c]
		if len(rows) != batchRows {
			return 1, 1, []string{fmt.Sprintf("client %d has no pass-0 rows", c)}
		}
		b := batchIndex(c, 0)
		if e.mode == modeHit {
			b = e.order[c][0]
		}
		reqs := batchRequests(e.o.Seed, b, false)
		if c == 0 {
			// Front door == farm.Run(Reference: true) on sampled rows.
			for _, r := range oracleRows {
				checked++
				want, err := referenceSig(reqs[r])
				if err != nil {
					bad++
					notes = append(notes, fmt.Sprintf("reference run of row %d: %v", r, err))
				} else if got := sigOf(&rows[r]); got != want {
					bad++
					notes = append(notes, fmt.Sprintf("row %d differs from the reference engine: got %+v want %+v", r, got, want))
				}
			}
		}
		if e.mode == modeCluster {
			// N nodes == one node: pass 0 equals the solo server's rows once
			// elapsed_ms, peer, cached and trace are set aside.
			for r := range rows {
				checked++
				if sigOf(&rows[r]) != e.solo[c][r] {
					bad++
					notes = append(notes, fmt.Sprintf("cluster row %d/%d differs from the solo server", c, r))
				}
			}
		}
	}
	return checked, bad, notes
}

// referenceSig computes a row through farm.Run with the step-loop reference
// engines, shaping the result the way the server does.
func referenceSig(req serve.JobRequest) (rowSig, error) {
	job, err := req.Job()
	if err != nil {
		return rowSig{}, err
	}
	key, err := job.Key()
	if err != nil {
		return rowSig{}, err
	}
	job.Reference = true
	res, err := farm.Run(job)
	if err != nil {
		return rowSig{}, err
	}
	return sigOfResult(key, res), nil
}

func sigOfResult(key string, res farm.Result) rowSig {
	s := rowSig{Key: key, Stats: res.Stats}
	if res.Out != nil {
		copy(s.Shape[:], res.Out.Shape())
		var sum float64
		for _, v := range res.Out.Data() {
			sum += float64(v)
		}
		s.SumBits = math.Float64bits(sum)
	}
	return s
}

func (e *sweepEnv) counters() map[string]float64 {
	m := map[string]float64{}
	for _, n := range e.st.serving() {
		st := n.fm.Stats()
		m["farm.submitted"] += float64(st.Submitted)
		m["farm.hits"] += float64(st.Hits)
		m["farm.disk_hits"] += float64(st.DiskHits)
		m["farm.deduped"] += float64(st.Deduped)
		m["farm.mem_evictions"] += float64(st.Memory.Evictions)
		m["pack.hits"] += float64(st.Pack.Hits)
		m["pack.misses"] += float64(st.Pack.Misses)
		if n.repl != nil {
			m["farm.replica_writes"] += float64(n.repl.ReplicaStats().Writes)
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	m["serve.error_rows"] = e.errRows
	for _, w := range e.st.workers {
		m["peer_rows."+w.name] = e.peerRows[w.name]
	}
	return m
}

func (e *sweepEnv) layerMetrics(loopStats) map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return map[string]float64{
		"farm.phase_enqueue_wait_ms_p50": median(e.phases["enqueue_wait"]),
		"farm.phase_disk_lookup_ms_p50":  median(e.phases["disk_lookup"]),
		"farm.phase_compute_ms_p50":      median(e.phases["compute"]),
		"farm.phase_persist_ms_p50":      median(e.phases["persist"]),
	}
}
