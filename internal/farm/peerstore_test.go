package farm_test

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/farm/farmtest"
)

// newPeerPair stands up a backing farm, mounts its PeerHandler on an
// httptest server, and returns a PeerStore pointed at it. The caller owns
// the cleanup of all three.
func newPeerPair(t *testing.T, opts ...farm.PeerStoreOption) (*farm.Farm, *httptest.Server, *farm.PeerStore) {
	t.Helper()
	backing := farm.New(2)
	srv := httptest.NewServer(farm.PeerHandler(backing))
	ps := farm.NewPeerStore(srv.URL, opts...)
	t.Cleanup(func() {
		ps.Close()
		srv.Close()
		backing.Close()
	})
	return backing, srv, ps
}

// simulated runs dryJob(n) and returns its key and result.
func simulated(t *testing.T, n int) (string, farm.Result) {
	t.Helper()
	job := dryJob(n)
	res, err := farm.Run(job)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	key, err := job.Key()
	if err != nil {
		t.Fatalf("Key: %v", err)
	}
	return key, res
}

// putFrame sends a raw PUT to the peer route with the given version
// headers (an empty value omits the header) and returns the status.
func putFrame(t *testing.T, url, key string, frame []byte, codec, keyVersion string) int {
	t.Helper()
	req, _ := http.NewRequest(http.MethodPut, url+"/peer/result/"+key, bytes.NewReader(frame))
	if codec != "" {
		req.Header.Set("X-Bifrost-Codec", codec)
	}
	if keyVersion != "" {
		req.Header.Set("X-Bifrost-Key-Version", keyVersion)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("PUT: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// codecHeader is the local codec version as the wire spells it.
var codecHeader = strconv.Itoa(farm.CodecVersion)

// TestPeerStoreRoundTrip exercises the happy path end to end: a Put
// replicates a result the backing node then holds byte-identically, and
// Get is a clean miss that never reaches the peer.
func TestPeerStoreRoundTrip(t *testing.T) {
	backing := farm.New(2)
	defer backing.Close()
	var requests atomic.Int64
	inner := farm.PeerHandler(backing)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	ps := farm.NewPeerStore(srv.URL)
	defer ps.Close()

	key, res := simulated(t, 2)
	if err := ps.PutErr(key, res); err != nil {
		t.Fatalf("PutErr: %v", err)
	}
	back, ok := backing.CacheGet(key)
	if !ok {
		t.Fatal("replicated entry not held by the peer")
	}
	if err := farmtest.DiffResults(res, back); err != nil {
		t.Fatalf("replicated entry diverged: %v", err)
	}

	// A replica target is never read, not even for a key it holds.
	if _, ok, err := ps.GetErr(key); ok || err != nil {
		t.Fatalf("GetErr = ok=%v err=%v, want a clean miss", ok, err)
	}
	if _, ok := ps.Get(key); ok {
		t.Fatal("Get hit a replica target")
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("peer saw %d requests, want the 1 PUT", n)
	}
	if st := ps.Stats(); st.Puts != 1 || st.Errors != 0 {
		t.Errorf("peer stats = %+v, want 1 put, 0 errors", st)
	}
}

// TestPeerReplicaLandsOnDisk pins where a received replica lives: in the
// receiver's local tier, not its memory tier — a replica is read only after
// its owner dies, and that failover promotes it like any disk hit. The
// receiver takes the shapes bifrost-serve gives it, a bare disk tier and a
// replicated tier over one; a receiver with no local tier keeps the replica
// in memory, the only tier it has.
func TestPeerReplicaLandsOnDisk(t *testing.T) {
	diskTier := func(t *testing.T) farm.Store {
		ds, err := farm.NewDiskStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	for _, tc := range []struct {
		name string
		tier func(t *testing.T) farm.Store // nil: no local tier
	}{
		{"disk", diskTier},
		{"replicated", func(t *testing.T) farm.Store {
			local := farm.NewRetryStore(diskTier(t), farmtest.TestRetryPolicy())
			return farm.NewReplicatedStore(local, "w2", 2, nil)
		}},
		{"memory only", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []farm.Option
			if tc.tier != nil {
				opts = append(opts, farm.WithDiskStore(tc.tier(t)))
			}
			backing := farm.New(2, opts...)
			defer backing.Close()
			srv := httptest.NewServer(farm.PeerHandler(backing))
			defer srv.Close()
			ps := farm.NewPeerStore(srv.URL)
			defer ps.Close()

			key, res := simulated(t, 3)
			before := backing.Stats()
			if err := ps.PutErr(key, res); err != nil {
				t.Fatalf("PutErr: %v", err)
			}
			after := backing.Stats()
			if tc.tier != nil {
				if got := after.Disk.Entries - before.Disk.Entries; got != 1 {
					t.Errorf("disk-tier entries rose by %d, want 1", got)
				}
				if after.Memory.Puts != before.Memory.Puts || after.Memory.Entries != before.Memory.Entries {
					t.Errorf("memory tier moved: puts %d → %d, entries %d → %d, want unchanged",
						before.Memory.Puts, after.Memory.Puts, before.Memory.Entries, after.Memory.Entries)
				}
			} else if got := after.Memory.Puts - before.Memory.Puts; got != 1 {
				t.Errorf("memory-tier puts rose by %d, want 1", got)
			}
			back, ok := backing.CacheGet(key)
			if !ok {
				t.Fatal("receiver does not hold the replica")
			}
			if err := farmtest.DiffResults(res, back); err != nil {
				t.Fatalf("held replica diverged: %v", err)
			}
		})
	}
}

// TestPeerStoreMissAndMalformedKey pins the key-shape check: the handler
// refuses keys that are not 64-char lowercase hex before touching the
// cache, and the sender surfaces the refusal as an error.
func TestPeerStoreMissAndMalformedKey(t *testing.T) {
	_, srv, ps := newPeerPair(t)
	_, res := simulated(t, 1)
	frame := farm.EncodeResult(res)

	for _, bad := range []string{"shortkey", strings.Repeat("g", 64), strings.Repeat("AB", 32)} {
		if code := putFrame(t, srv.URL, bad, frame, codecHeader, farm.KeyVersion); code != http.StatusBadRequest {
			t.Errorf("key %q: HTTP %d, want 400", bad, code)
		}
		if err := ps.PutErr(bad, res); err == nil {
			t.Errorf("key %q: PutErr accepted a malformed key", bad)
		}
	}
	if _, ok, err := ps.GetErr(strings.Repeat("ab", 32)); ok || err != nil {
		t.Fatalf("GetErr: ok=%v err=%v, want clean miss", ok, err)
	}
}

// TestPeerHandlerServesOnlyPut pins the one-route wire: a result can be
// written, never read.
func TestPeerHandlerServesOnlyPut(t *testing.T) {
	_, srv, _ := newPeerPair(t)
	resp, err := http.Get(srv.URL + "/peer/result/" + strings.Repeat("ab", 32))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET of a result: HTTP %d, want 405", resp.StatusCode)
	}
}

// TestPeerHandlerRequiresVersionHeaders pins the only version check left on
// the wire: a PUT missing either header gets 412 and stores nothing.
func TestPeerHandlerRequiresVersionHeaders(t *testing.T) {
	backing, srv, _ := newPeerPair(t)
	key, res := simulated(t, 5)
	frame := farm.EncodeResult(res)

	for _, h := range [][2]string{{"", ""}, {codecHeader, ""}, {"", farm.KeyVersion}} {
		if code := putFrame(t, srv.URL, key, frame, h[0], h[1]); code != http.StatusPreconditionFailed {
			t.Errorf("PUT with headers %q: HTTP %d, want 412", h, code)
		}
	}
	if _, ok := backing.CacheGet(key); ok {
		t.Fatal("a PUT without version headers reached the cache")
	}
	if code := putFrame(t, srv.URL, key, frame, codecHeader, farm.KeyVersion); code != http.StatusNoContent {
		t.Fatalf("PUT with both headers: HTTP %d, want 204", code)
	}
}

// TestPeerHandlerRejectsSkewedWriter covers the server side of the
// tripwire: a writer advertising a different codec or key version gets 412
// and the frame is never decoded or stored.
func TestPeerHandlerRejectsSkewedWriter(t *testing.T) {
	backing, srv, _ := newPeerPair(t)
	key := strings.Repeat("23", 32)

	if code := putFrame(t, srv.URL, key, []byte("junk"), "999", farm.KeyVersion); code != http.StatusPreconditionFailed {
		t.Fatalf("codec-skewed PUT: HTTP %d, want 412", code)
	}
	if code := putFrame(t, srv.URL, key, []byte("junk"), codecHeader, "k0"); code != http.StatusPreconditionFailed {
		t.Fatalf("key-skewed PUT: HTTP %d, want 412", code)
	}
	if _, ok := backing.CacheGet(key); ok {
		t.Fatal("skewed write reached the cache")
	}
}

// skewingPeer fronts a real PeerHandler and, while skew is set, rewrites
// each request's codec header as a peer one version ahead would see it.
func skewingPeer(t *testing.T) (*farm.Farm, *httptest.Server, *atomic.Bool) {
	t.Helper()
	backing := farm.New(1)
	inner := farm.PeerHandler(backing)
	var skew atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if skew.Load() {
			r.Header.Set("X-Bifrost-Codec", strconv.Itoa(farm.CodecVersion+1))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		srv.Close()
		backing.Close()
	})
	return backing, srv, &skew
}

// TestPeerStoreVersionSkewDropsWrite points a breaker-wrapped PeerStore at
// a version-skewed peer: every write is refused with 412, PutErr drops it
// without error, and the breaker is never fed.
func TestPeerStoreVersionSkewDropsWrite(t *testing.T) {
	backing, srv, skew := skewingPeer(t)
	skew.Store(true)
	rs := farm.NewRetryStore(farm.NewPeerStore(srv.URL), farm.RetryPolicy{TripAfter: 1, ProbeEvery: time.Hour})
	defer rs.Close()

	for i := 0; i < 3; i++ {
		key, res := simulated(t, 10+i)
		if err := rs.PutErr(key, res); err != nil {
			t.Fatalf("skewed put %d: %v, want dropped without error", i, err)
		}
		if _, ok := backing.CacheGet(key); ok {
			t.Fatalf("skewed put %d reached the peer's cache", i)
		}
	}
	if st := rs.Stats(); st.Trips != 0 || st.Degraded || st.Errors != 0 || st.Puts != 0 {
		t.Errorf("stats = %+v: version skew fed the breaker or counted a write", st)
	}
}

// TestPeerStoreMidConversationSkew upgrades the peer underneath a PeerStore
// that has been writing to it: the writes made during the skew are dropped
// without error, and the first write after the peer is back lands — there
// is no client-side skew state to wait out.
func TestPeerStoreMidConversationSkew(t *testing.T) {
	backing, srv, skew := skewingPeer(t)
	ps := farm.NewPeerStore(srv.URL)
	defer ps.Close()

	put := func(n int) (string, error) {
		key, res := simulated(t, n)
		return key, ps.PutErr(key, res)
	}
	if key, err := put(20); err != nil {
		t.Fatalf("pre-skew put: %v", err)
	} else if _, ok := backing.CacheGet(key); !ok {
		t.Fatal("pre-skew put did not land")
	}
	skew.Store(true)
	if key, err := put(21); err != nil {
		t.Fatalf("put during skew: %v, want dropped without error", err)
	} else if _, ok := backing.CacheGet(key); ok {
		t.Fatal("put during skew reached the peer's cache")
	}
	skew.Store(false)
	if key, err := put(22); err != nil {
		t.Fatalf("post-skew put: %v", err)
	} else if _, ok := backing.CacheGet(key); !ok {
		t.Fatal("first put after the skew cleared did not land")
	}
	if st := ps.Stats(); st.Puts != 2 || st.Errors != 0 {
		t.Errorf("stats = %+v, want 2 puts, 0 errors", st)
	}
}

// TestPeerStoreCorruptFrameIsRefused damages a frame in flight: the
// receiver's CRC check answers 422 and stores nothing, and the sender's
// PutErr surfaces an error (breaker food) counted as corrupt.
func TestPeerStoreCorruptFrameIsRefused(t *testing.T) {
	backing, srv, _ := newPeerPair(t)
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, err
		}
		body[len(body)-6] ^= 0x40 // flip a payload bit under the CRC
		r = r.Clone(r.Context())
		r.Body, r.GetBody = io.NopCloser(bytes.NewReader(body)), nil
		return http.DefaultTransport.RoundTrip(r)
	})}
	ps := farm.NewPeerStore(srv.URL, farm.WithPeerHTTPClient(client))
	defer ps.Close()

	key, res := simulated(t, 3)
	if err := ps.PutErr(key, res); err == nil {
		t.Fatal("corrupt frame: PutErr returned nil, want an error")
	}
	if _, ok := backing.CacheGet(key); ok {
		t.Fatal("a corrupt frame reached the peer's cache")
	}
	if st := ps.Stats(); st.Corrupt != 1 || st.Errors != 1 || st.Puts != 0 {
		t.Errorf("stats = %+v, want Corrupt=1 Errors=1 Puts=0", st)
	}
}

// TestPeerStoreBehindRetryStore composes the deployed stack: an unreachable
// peer behind NewRetryStore trips the breaker on PUTs into quarantine
// (writes refused locally, no hammering), and a half-open probe lets the
// peer back in once it recovers.
func TestPeerStoreBehindRetryStore(t *testing.T) {
	backing := farm.New(1)
	defer backing.Close()
	inner := farm.PeerHandler(backing)
	var down atomic.Bool
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		if down.Load() {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	policy := farm.RetryPolicy{
		MaxRetries: 1, BaseDelay: 50 * time.Microsecond, MaxDelay: time.Millisecond,
		TripAfter: 2, ProbeEvery: 250 * time.Millisecond,
	}
	rs := farm.NewRetryStore(farm.NewPeerStore(srv.URL), policy)
	defer rs.Close()

	key, res := simulated(t, 4)
	if err := rs.PutErr(key, res); err != nil {
		t.Fatalf("healthy peer through RetryStore: %v", err)
	}

	down.Store(true)
	for i := 0; i < 3 && !rs.Degraded(); i++ {
		rs.PutErr(key, res)
	}
	if !rs.Degraded() {
		t.Fatal("total peer outage did not quarantine the tier")
	}
	before := requests.Load()
	if err := rs.PutErr(key, res); !errors.Is(err, farm.ErrStoreQuarantined) {
		t.Fatalf("quarantined peer: err=%v, want ErrStoreQuarantined", err)
	}
	if n := requests.Load() - before; n != 0 {
		t.Fatalf("quarantined peer received %d requests inside the probe window", n)
	}

	down.Store(false)
	key2, res2 := simulated(t, 5)
	waitUntil(t, "breaker probe re-admits the recovered peer", func() bool {
		return rs.PutErr(key2, res2) == nil
	})
	if rs.Degraded() {
		t.Error("breaker still open after a successful probe")
	}
	if _, ok := backing.CacheGet(key2); !ok {
		t.Error("the successful probe's write did not land")
	}
}

// TestPeerStoreUnreachableSurfacesError pins the FallibleStore contract for
// a peer that is simply gone: PutErr must return an error, not a silent
// drop, so the retry wrapper can see and count the failure. GetErr stays a
// clean miss: it never dials.
func TestPeerStoreUnreachableSurfacesError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	url := srv.URL
	srv.Close() // nothing listens here any more

	ps := farm.NewPeerStore(url, farm.WithPeerHTTPClient(&http.Client{Timeout: 200 * time.Millisecond}))
	defer ps.Close()
	if err := ps.PutErr(strings.Repeat("01", 32), farm.Result{}); err == nil {
		t.Fatal("dead peer put: want surfaced error")
	}
	if _, ok, err := ps.GetErr(strings.Repeat("01", 32)); ok || err != nil {
		t.Fatalf("dead peer get: ok=%v err=%v, want clean miss", ok, err)
	}
	if st := ps.Stats(); st.Errors != 1 {
		t.Errorf("stats = %+v, want 1 error", st)
	}
}

// errAbort distinguishes transport aborts injected below.
var errAbort = errors.New("injected transport abort")

// TestPeerStoreTransportErrorTaxonomy drives one write through an aborting
// RoundTripper and confirms it surfaces as an error (breaker food) rather
// than a dropped write.
func TestPeerStoreTransportErrorTaxonomy(t *testing.T) {
	_, srv, _ := newPeerPair(t)
	var armed atomic.Bool
	client := &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if armed.Load() {
			return nil, errAbort
		}
		return http.DefaultTransport.RoundTrip(r)
	})}
	ps := farm.NewPeerStore(srv.URL, farm.WithPeerHTTPClient(client))
	defer ps.Close()

	key, res := simulated(t, 6)
	if err := ps.PutErr(key, res); err != nil {
		t.Fatalf("warmup put: %v", err)
	}
	armed.Store(true)
	if err := ps.PutErr(key, res); !errors.Is(err, errAbort) {
		t.Fatalf("aborted transport: err=%v, want wrapped errAbort", err)
	}
}

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
