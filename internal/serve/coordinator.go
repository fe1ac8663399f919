package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
	"repro/internal/telemetry"
)

// Coordinator mode turns a bifrost-serve node into the front of a
// distributed farm: each job's spec digest (farm.Job.Placement, the bytes
// its key hashes ahead of naming the operands) is consistent-hashed onto a
// ring of peer nodes, the job is forwarded to its owner's /simulate
// endpoint, and the response streams back through the normal single-job and
// NDJSON batch paths. Placement is deterministic (farm.Ring) and needs no
// operand, so every coordinator over the same peer set routes every job
// identically, each owner's replicated tier walks the same ring by the same
// digest, and a sharded sweep stays byte-identical to a single-node run.
//
// Failure handling mirrors the local disk tier's:
//
//	peer down      → per-peer farm.Breaker (the disk tier's and the
//	                 replicas' state machine) trips after a failure streak
//	                 of dispatches or /healthz probes; the peer is
//	                 quarantined and risked one real job per probe interval
//	quarantined    → its shard is redistributed deterministically to the
//	                 next owners on the ring, then to the local farm
//	peer at bound  → its 429 propagates to the client with the peer's
//	                 Retry-After intact (backpressure is an answer, not a
//	                 failure)
//	peer draining  → its 503 "draining" answers and probes are failures
//	                 like any other 5xx: the job fails over and the breaker
//	                 trips; a healthy probe re-admits the peer
//	peer stalled   → -peer-timeout fails it over like a down peer; a row
//	                 whose own deadline passes first answers 504 instead,
//	                 without feeding the breaker
//	all peers gone → the local farm executes everything; a coordinator
//	                 degrades to a correct single node
//
// Placement makes no side calls: what the coordinator knows about a peer is
// its breaker, fed by dispatch answers and, when probing is enabled, by a
// background loop hitting each peer's /healthz, so a dead or recovered node
// flips down/up without waiting for a real dispatch to discover it. Each
// peer's load gauges live on its own /metrics.

// Peer names one remote bifrost-serve node in the coordinator's ring.
type Peer struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// errPeerUnavailable classifies a job whose owning peers all failed and
// whose local fallback was impossible; in practice the local farm absorbs
// the job, so clients only see this code if dispatch fails before any
// execution.
var errPeerUnavailable = errors.New("serve: no peer could execute the job")

// WithPeers configures coordinator mode: jobs are consistent-hashed across
// the given peers, with the local farm as the deterministic last resort.
// An empty slice leaves the server a plain single node.
func WithPeers(peers []Peer) ServerOption {
	return func(s *Server) { s.peerList = append([]Peer(nil), peers...) }
}

// WithPeerTimeout bounds how long a peer may hold a dispatch before
// answering headers. It replaces a blanket client timeout: dials are
// bounded separately and response bodies may stream as long as they need,
// so the timeout is purely "how long may a peer think".
func WithPeerTimeout(d time.Duration) ServerOption {
	return func(s *Server) {
		if d > 0 {
			s.peerCfg.Timeout = d
		}
	}
}

// WithPeerProbes starts a background loop probing each peer's /healthz
// every interval and reporting each answer to the peer's breaker, so
// membership tracks reality instead of being discovered one failed
// dispatch at a time. 0 disables the loop.
func WithPeerProbes(every time.Duration) ServerOption {
	return func(s *Server) { s.peerCfg.ProbeEvery = every }
}

// peerConfig collects the coordinator's tunables, all flag-settable.
type peerConfig struct {
	Timeout    time.Duration // peer response-header bound
	ProbeEvery time.Duration // 0: no active health probes
}

const (
	// peerDialTimeout bounds connection establishment to a peer; an
	// unreachable node fails over in seconds, not minutes.
	peerDialTimeout = 5 * time.Second
	// healthProbeTimeout bounds one active /healthz probe.
	healthProbeTimeout = 2 * time.Second
)

// coordinator owns the ring, the per-peer breakers and the dispatch loop.
// The ring is static — every configured peer, built once; placement walks a
// key's owners and skips peers whose breaker refuses, which yields the
// owner order of a ring rebuilt without them.
type coordinator struct {
	s      *Server
	cfg    peerConfig
	ring   *farm.Ring
	client *http.Client
	peers  map[string]*peerState
	names  []string // stable sorted peer names for metrics

	localFallbacks atomic.Int64

	stopOnce sync.Once
	stopCh   chan struct{}
}

// peerState is one peer's breaker and counters.
type peerState struct {
	name, url string

	// breaker is the peer's one health state: dispatches and probes feed
	// it, and a quarantined peer is risked one real job per probe interval;
	// success re-admits it.
	breaker *farm.Breaker

	dispatched atomic.Int64 // jobs this peer answered (any terminal status)
	failovers  atomic.Int64 // jobs moved off this peer after it failed
	skipped    atomic.Int64 // placements the breaker refused
}

func newCoordinator(s *Server, peers []Peer) *coordinator {
	c := &coordinator{
		s:    s,
		cfg:  s.peerCfg,
		ring: farm.NewRing(0),
		// Dial and response-header bounds instead of a blanket timeout: a
		// hung or unreachable peer fails over fast, while a legitimately
		// long simulation may stream its (already started) response body
		// for as long as it needs.
		client: &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: peerDialTimeout}).DialContext,
			ResponseHeaderTimeout: s.peerCfg.Timeout,
			MaxIdleConnsPerHost:   16,
			IdleConnTimeout:       90 * time.Second,
		}},
		peers:  make(map[string]*peerState, len(peers)),
		stopCh: make(chan struct{}),
	}
	for _, p := range peers {
		if p.Name == "" || p.URL == "" {
			continue
		}
		c.ring.Add(p.Name)
		c.peers[p.Name] = &peerState{name: p.Name, url: p.URL, breaker: farm.NewBreaker(farm.DefaultRetryPolicy())}
		c.names = append(c.names, p.Name)
	}
	sort.Strings(c.names)
	if c.cfg.ProbeEvery > 0 {
		go c.probeLoop()
	}
	return c
}

// stop ends the coordinator's background probe loop.
func (c *coordinator) stop() { c.stopOnce.Do(func() { close(c.stopCh) }) }

// probeLoop actively probes every peer's /healthz on a timer, so a dead
// node leaves placement and a restarted or recovered one rejoins without
// waiting for a dispatch to discover it.
func (c *coordinator) probeLoop() {
	t := time.NewTicker(c.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stopCh:
			return
		case <-t.C:
			for _, name := range c.names {
				c.probe(c.peers[name])
			}
		}
	}
}

// probe runs one active health check against a peer and reports it to the
// peer's breaker: a 200 is a success, anything else (a draining node
// answers 503) a failure.
func (c *coordinator) probe(ps *peerState) {
	ctx, cancel := context.WithTimeout(context.Background(), healthProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ps.url+"/healthz", nil)
	if err != nil {
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		ps.breaker.Failure()
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		ps.breaker.Success()
	} else {
		ps.breaker.Failure()
	}
}

// placeable decides whether a placement may try this peer right now: the
// breaker's Admit is the gate.
func (ps *peerState) placeable() bool {
	if !ps.breaker.Admit() {
		ps.skipped.Add(1)
		return false
	}
	return true
}

// run dispatches one named request across the ring, on the caller's
// goroutine. The job's spec digest (farm.Job.Placement) decides its owner —
// a hash of the spec compiled when the row was named, never an operand
// build and never a key taken from the request. Owners are tried one at a
// time in the ring's deterministic failover order, skipping peers whose
// breaker refuses; if every owner is out, the local farm executes the job
// — the coordinator never refuses work a single node could do. The walk is
// bounded by the row's own deadline, the one its owner enforces too: an
// owner that stalls past it costs this row, never the next owner's time.
func (c *coordinator) run(ctx context.Context, n named) JobResponse {
	start := time.Now()
	owners, err := c.owners(n)
	if err != nil {
		return c.s.annotate(JobResponse{Error: err.Error(), ElapsedMS: msSince(start), err: err})
	}
	if d := c.s.deadline(n.req); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	for _, name := range owners {
		ps := c.peers[name]
		if !ps.placeable() {
			continue
		}
		if resp, terminal := c.forward(ctx, ps, n, start); terminal {
			return resp
		}
		ps.failovers.Add(1)
		if ctx.Err() != nil {
			// The client is gone or the row's deadline passed; walking
			// more owners only burns peers.
			return c.failed(n, ctx.Err(), start)
		}
	}

	// Redistribution's last hop: the shard lands on the local farm.
	c.localFallbacks.Add(1)
	return c.s.run(ctx, n)
}

// owners returns every peer in the ring's failover order for the named
// job's placement — the order the owner's ReplicatedStore walks when it
// persists the result.
func (c *coordinator) owners(n named) ([]string, error) {
	if n.err != nil {
		return nil, n.err
	}
	place, err := n.job.Placement()
	if err != nil {
		return nil, err
	}
	return c.ring.Owners(place, c.ring.Len()), nil
}

// failed is a row the coordinator originates itself: the client left
// mid-walk, or the request would not marshal. Like every row it names the
// job's key, which placement never computes, so this rare path hashes the
// spec once more; a seeded job's key builds no operand.
func (c *coordinator) failed(n named, err error, start time.Time) JobResponse {
	key, _ := n.job.Key()
	return c.s.annotate(JobResponse{Key: key, Error: err.Error(), ElapsedMS: msSince(start), err: err})
}

// forward sends the job to one peer and shapes the reply. terminal=false
// means the peer could not answer (network failure or 5xx) and the caller
// should fail over; every real answer — success, backpressure, deadline,
// invalid job — is terminal and propagates. A failure caused by our own
// context (the client gone or its deadline passed) is not breaker food: the
// peer did nothing wrong.
func (c *coordinator) forward(ctx context.Context, ps *peerState, n named, start time.Time) (JobResponse, bool) {
	body, err := json.Marshal(n.req)
	if err != nil {
		return c.failed(n, err, start), true
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ps.url+"/simulate", bytes.NewReader(body))
	if err != nil {
		return JobResponse{}, false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := c.client.Do(hreq)
	if err != nil {
		if ctx.Err() == nil {
			ps.breaker.Failure()
		}
		return JobResponse{}, false
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(hresp.Body, 4096))
		hresp.Body.Close()
	}()

	var resp JobResponse
	decodeErr := json.NewDecoder(io.LimitReader(hresp.Body, 64<<20)).Decode(&resp)

	switch {
	case hresp.StatusCode == http.StatusOK:
		if decodeErr != nil {
			if ctx.Err() == nil {
				ps.breaker.Failure()
			}
			return JobResponse{}, false
		}
		ps.breaker.Success()
	case hresp.StatusCode == http.StatusTooManyRequests:
		// The peer is healthy and saying "not now": backpressure propagates
		// to the client as-is, the peer's hint included, rather than pile
		// the load onto the next owner and melt the ring one peer at a time.
		ps.breaker.Success()
		resp.err = farm.ErrQueueFull
		if resp.Error == "" {
			resp.Error = farm.ErrQueueFull.Error()
		}
		resp = c.s.annotate(resp)
	case hresp.StatusCode == http.StatusGatewayTimeout:
		ps.breaker.Success()
		resp.err = context.DeadlineExceeded
		resp = c.s.annotate(resp)
	case hresp.StatusCode == http.StatusUnprocessableEntity:
		// The job itself is bad; every peer would refuse it identically.
		ps.breaker.Success()
		if resp.Error == "" {
			resp.Error = fmt.Sprintf("peer %s: HTTP %d", ps.name, hresp.StatusCode)
		}
		resp.err = errors.New(resp.Error)
		resp = c.s.annotate(resp)
	default:
		// 5xx (a draining peer's 503 included), or garbage: this peer
		// cannot answer.
		if ctx.Err() == nil {
			ps.breaker.Failure()
		}
		return JobResponse{}, false
	}

	ps.dispatched.Add(1)
	resp.Peer = ps.name
	if resp.Trace != nil {
		// One trace per hop: wrap the executing node's trace in this hop's,
		// so the client sees dispatch + wire time around remote queue wait,
		// lookups and compute.
		resp.Trace = &telemetry.Trace{
			Key:     resp.Key,
			Source:  "peer",
			Peer:    ps.name,
			Remote:  resp.Trace,
			TotalMS: telemetry.MS(time.Since(start)),
		}
	}
	resp.ElapsedMS = msSince(start)
	return resp, true
}

// writeMetrics appends the coordinator's exposition families: ring
// counters, plus per-peer dispatch counters and health under a peer
// label. Per-peer families cover every configured peer, including ones
// currently off the ring — that is exactly when an operator needs to see
// them.
func (c *coordinator) writeMetrics(w io.Writer) {
	one := func(v float64) []telemetry.Sample { return []telemetry.Sample{{Value: v}} }
	up := 0
	for _, ps := range c.peers {
		if !ps.breaker.Open() {
			up++
		}
	}
	telemetry.WriteSamples(w, "bifrost_coordinator_ring_members",
		"Peers currently on the coordinator's hash ring: the sum of bifrost_peer_up.", "gauge", one(float64(up))...)
	telemetry.WriteSamples(w, "bifrost_coordinator_local_fallbacks_total",
		"Jobs the local farm absorbed because every owning peer was unavailable.", "counter",
		one(float64(c.localFallbacks.Load()))...)

	perPeer := func(suffix, help, typ string, pick func(*peerState) float64) {
		samples := make([]telemetry.Sample, 0, len(c.names))
		for _, n := range c.names {
			samples = append(samples, telemetry.Sample{
				Labels: []telemetry.Label{{Name: "peer", Value: n}},
				Value:  pick(c.peers[n]),
			})
		}
		telemetry.WriteSamples(w, suffix, help, typ, samples...)
	}
	perPeer("bifrost_peer_up", "1 while the peer's breaker is closed, 0 while it is quarantined.", "gauge",
		func(ps *peerState) float64 { return bit01(!ps.breaker.Open()) })
	perPeer("bifrost_peer_dispatched_total", "Jobs this peer answered terminally.", "counter",
		func(ps *peerState) float64 { return float64(ps.dispatched.Load()) })
	perPeer("bifrost_peer_failovers_total", "Jobs moved off this peer after it failed.", "counter",
		func(ps *peerState) float64 { return float64(ps.failovers.Load()) })
	perPeer("bifrost_peer_skipped_total", "Placements that skipped this peer because its breaker refused the job.", "counter",
		func(ps *peerState) float64 { return float64(ps.skipped.Load()) })
	perPeer("bifrost_peer_breaker_trips_total", "Times this peer's breaker opened.", "counter",
		func(ps *peerState) float64 { return float64(ps.breaker.Trips()) })
}
