package farm

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The peer wire protocol lets one node write a replica into another node's
// result cache, in the exact versioned frame format the disk tier persists
// (codec.go) under the exact content-addressed keys the farm derives
// (key.go). It is write-only: every result is a pure function of its key,
// so a node that lacks a copy recomputes it and never reads a replica back.
//
//	PUT /peer/result/{key}   → 204 stored | 412 version skew | 422 bad frame
//
// Every PUT carries the sender's codec and key versions in headers, and the
// receiver refuses with 412 a PUT whose headers are missing or differ from
// its own, rather than decode bytes under the wrong rules or file results
// under keys it never derives. The sender treats a 412 as a dropped write,
// not a fault: version skew during a rolling upgrade costs replicas, never
// correctness.

const (
	peerCodecHeader = "X-Bifrost-Codec"
	peerKeyHeader   = "X-Bifrost-Key-Version"

	// peerMaxFrameBytes bounds a result frame on the wire; a frame near this
	// size would be a multi-GB output tensor, far past anything the farm
	// simulates.
	peerMaxFrameBytes = 256 << 20
)

// PeerHandler serves the peer wire protocol over f's result cache: one
// route, PUT /peer/result/{key}. The serve layer mounts it on the main mux,
// and tests mount it directly on an httptest server. A replica frame
// pushed by a peer is stored in this node's local tier only (the disk
// tier's local half), not in memory: a replica is read only after its
// owner dies, and the failover that needs it promotes it like any disk hit.
// A node with no local tier keeps it in memory, the only tier it has. A
// replica never fans back out — that would cascade one logical write into
// N² replica writes.
func PeerHandler(f *Farm) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("PUT /peer/result/{key}", func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(peerCodecHeader) != strconv.Itoa(CodecVersion) || r.Header.Get(peerKeyHeader) != KeyVersion {
			http.Error(w, "peer codec/key version mismatch", http.StatusPreconditionFailed)
			return
		}
		key := r.PathValue("key")
		if !validKey(key) {
			http.Error(w, "malformed result key", http.StatusBadRequest)
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, peerMaxFrameBytes+1))
		if err != nil {
			http.Error(w, "reading frame: "+err.Error(), http.StatusBadRequest)
			return
		}
		if len(body) > peerMaxFrameBytes {
			http.Error(w, "result frame too large", http.StatusRequestEntityTooLarge)
			return
		}
		res, err := DecodeResult(body)
		if err != nil {
			// The frame validated nowhere — CRC, magic or structure failed —
			// so the replica is refused; the sender's copy is what's damaged.
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		f.cachePutLocal(key, res)
		w.WriteHeader(http.StatusNoContent)
	})
	return mux
}

// PeerStore is a replica target: a farm.Store whose Put writes the result
// into another node's cache over the peer wire protocol. A replica target
// is never read, so Get and GetErr are clean misses that do no I/O. It
// implements FallibleStore so NewRetryStore gives an unreachable peer the
// same treatment as a failing disk: bounded retries, quarantine after a
// failure streak, half-open probes until it recovers.
//
// PutErr's failure taxonomy:
//   - network error or 5xx     → error (retry/quarantine food)
//   - 422, the peer's CRC check
//     refused the frame        → error, counted in Stats().Corrupt
//   - 412, version skew        → dropped write, nil: skew is not a fault,
//     so it never trips the breaker
type PeerStore struct {
	base   string // peer base URL, no trailing slash
	client *http.Client

	statsMu sync.Mutex
	stats   StoreStats
}

// PeerStoreOption configures a PeerStore.
type PeerStoreOption func(*PeerStore)

// WithPeerHTTPClient substitutes the HTTP client — the seam the chaos
// harness uses to inject network faults at the transport level.
func WithPeerHTTPClient(c *http.Client) PeerStoreOption {
	return func(p *PeerStore) {
		if c != nil {
			p.client = c
		}
	}
}

// NewPeerStore returns a Store that writes replicas to the peer at baseURL
// (scheme and host, e.g. "http://node2:8080").
func NewPeerStore(baseURL string, opts ...PeerStoreOption) *PeerStore {
	p := &PeerStore{
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	for _, opt := range opts {
		opt(p)
	}
	return p
}

func (p *PeerStore) count(f func(*StoreStats)) {
	p.statsMu.Lock()
	f(&p.stats)
	p.statsMu.Unlock()
}

// GetErr implements FallibleStore: a replica target is never read. It must
// stay, or asFallible would not find PutErr and replica-write errors would
// never reach the member's breaker.
func (p *PeerStore) GetErr(string) (Result, bool, error) { return Result{}, false, nil }

// Get implements Store: a replica target is never read.
func (p *PeerStore) Get(string) (Result, bool) { return Result{}, false }

// PutErr implements FallibleStore: replicate the result to the peer. See
// the type comment for the failure taxonomy.
func (p *PeerStore) PutErr(key string, res Result) error {
	req, err := http.NewRequest(http.MethodPut, p.base+"/peer/result/"+key, bytes.NewReader(EncodeResult(res)))
	if err != nil {
		return err
	}
	req.Header.Set(peerCodecHeader, strconv.Itoa(CodecVersion))
	req.Header.Set(peerKeyHeader, KeyVersion)
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		p.count(func(s *StoreStats) { s.Errors++ })
		return fmt.Errorf("peer %s: put: %w", p.base, err)
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNoContent, http.StatusOK:
		p.count(func(s *StoreStats) { s.Puts++ })
		return nil
	case http.StatusPreconditionFailed:
		return nil
	case http.StatusUnprocessableEntity:
		// The peer's CRC check rejected our frame: it was damaged in
		// transit. Count it; the retry wrapper re-sends a fresh encoding.
		p.count(func(s *StoreStats) { s.Corrupt++; s.Errors++ })
		return fmt.Errorf("peer %s: put: frame rejected as corrupt", p.base)
	default:
		p.count(func(s *StoreStats) { s.Errors++ })
		return fmt.Errorf("peer %s: put: HTTP %d", p.base, resp.StatusCode)
	}
}

// Put implements Store, absorbing transport errors.
func (p *PeerStore) Put(key string, res Result) { _ = p.PutErr(key, res) }

// Stats implements Store. Entries/Bytes stay zero: the tier's contents
// live on the peer, which reports them in its own /stats.
func (p *PeerStore) Stats() StoreStats {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.stats
}

// Close implements Store, releasing idle connections to the peer.
func (p *PeerStore) Close() error {
	p.client.CloseIdleConnections()
	return nil
}
