package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"mime"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
)

// A /batch request is one run: its rows execute under a bounded fan-out and
// are answered in submission order, streamed (NDJSON) or collected (JSON).
// A plain batch is bound to its request — a client that disconnects cancels
// its still-queued jobs. ?sweep_id=<id> detaches the same run and journals it:
// the server computes every row to completion whatever the client does, and
// records each completed row's farm key (farm.SweepLog — CRC-framed appends
// beside the disk store's atomic-rename result files). A reconnect with
// &resume=true attaches to the still-running sweep, or — after a crash or
// restart — replays every journaled row straight from the result cache and
// computes only the remainder. Either way the client's view is byte-identical
// to an uninterrupted run: rows are keyed by content, so a replayed row
// carries exactly the bytes the original execution produced.

// BatchRequest is the JSON form of a sweep.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse carries sweep results in submission order plus a stats
// snapshot taken after the sweep.
type BatchResponse struct {
	Results []JobResponse `json:"results"`
	Stats   farm.Stats    `json:"stats"`
}

// batchRun is one batch's execution state. rows[i] is written exactly once,
// before ready[i] closes; ready[len(rows)] closes at the run's end, after its
// end hook. Any number of readers (a resume attaches a second one to a live
// run) order on those channels, so none races the writers.
type batchRun struct {
	reqs  []JobRequest
	rows  []JobResponse
	ready []chan struct{}
}

func newBatchRun(reqs []JobRequest) *batchRun {
	b := &batchRun{reqs: reqs, rows: make([]JobResponse, len(reqs)), ready: make([]chan struct{}, len(reqs)+1)}
	for i := range b.ready {
		b.ready[i] = make(chan struct{})
	}
	return b
}

// fanout bounds a batch's concurrent in-flight jobs. Twice the worker pool
// keeps every worker fed while the next never-seen specs' operand tensors
// materialise for hashing, but the width is clamped to the queue bound: a
// fan-out wider than the queue admits would manufacture ErrQueueFull rows
// for jobs whose caller was blocked right here, ready to wait.
func (s *Server) fanout() int {
	n := 2 * s.farm.Workers()
	if lim := s.farm.Limits(); lim.MaxQueue > 0 {
		n = min(n, lim.MaxQueue)
	}
	return max(n, 1)
}

// execute computes every row of the run through row, then calls end (nil for
// none) and marks the run ended. The farm caps simulation concurrency; the
// semaphore here caps how many never-seen jobs have their operand tensors
// materialised at once — without it a huge cold sweep would allocate every
// operand up front regardless of worker count.
func (s *Server) execute(b *batchRun, row func(i int, req JobRequest) JobResponse, end func()) {
	sem := make(chan struct{}, s.fanout())
	var wg sync.WaitGroup
	for i, req := range b.reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			b.rows[i] = row(i, req)
			close(b.ready[i])
		}()
	}
	wg.Wait()
	if end != nil {
		end()
	}
	close(b.ready[len(b.rows)])
}

// stream writes the run's rows as NDJSON in submission order: each line is
// encoded through a pooled buffer and written as soon as it and all its
// predecessors are done, then flushed unless the next row is already waiting
// to share the flush — results arrive as they complete, not as one buffered
// batch. A vanished client or a failed write ends the stream, never the run.
func (b *batchRun) stream(ctx context.Context, w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	enc := json.NewEncoder(buf)
	for i, ready := range b.ready {
		select {
		case <-ready:
		case <-ctx.Done():
			return
		}
		if i == len(b.rows) {
			return // the response ends with the run: a sweep's id is free again
		}
		buf.Reset()
		if err := enc.Encode(b.rows[i]); err != nil {
			// The response is already streaming; all we can do is emit
			// an error line in place of the result.
			fmt.Fprintf(buf, "{\"error\":%q}\n", err.Error())
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
		select {
		case <-b.ready[i+1]:
		default:
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

// collect waits for the whole run and answers with the JSON batch shape.
func (b *batchRun) collect(ctx context.Context, w http.ResponseWriter, f *farm.Farm) {
	select {
	case <-b.ready[len(b.rows)]:
		writeJSON(w, http.StatusOK, BatchResponse{Results: b.rows, Stats: f.Stats()})
	case <-ctx.Done():
	}
}

// handleBatch decodes a JSON {"jobs": [...]} body or NDJSON (one job per line,
// Content-Type application/x-ndjson), obtains the run that executes the sweep,
// and answers in kind: JSON collected, NDJSON streamed line by line in order.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.refuseDraining(w)
		return
	}
	ctype, _, _ := mime.ParseMediaType(r.Header.Get("Content-Type"))
	ndjson := ctype == "application/x-ndjson" || ctype == "application/jsonlines"

	query := r.URL.Query()
	sweepID := query.Get("sweep_id")
	resume := false
	if v := query.Get("resume"); v != "" {
		var err error
		if resume, err = strconv.ParseBool(v); err != nil {
			writeJSON(w, http.StatusBadRequest, JobResponse{Error: "resume must be a boolean: " + err.Error()})
			return
		}
	}
	if resume && sweepID == "" {
		writeJSON(w, http.StatusBadRequest, JobResponse{Error: "resume=true needs a sweep_id"})
		return
	}

	var reqs []JobRequest
	body := http.MaxBytesReader(w, r.Body, maxBatchBody)
	if ndjson {
		sc := bufio.NewScanner(body)
		// The scanner grows its buffer on demand up to the line bound; a job
		// line is a few hundred bytes, so start there rather than at 1 MiB.
		sc.Buffer(make([]byte, 0, 4096), maxJobBody)
		line := 0
		for sc.Scan() {
			line++
			text := bytes.TrimSpace(sc.Bytes())
			if len(text) == 0 {
				continue
			}
			var req JobRequest
			if err := json.Unmarshal(text, &req); err != nil {
				writeJSON(w, http.StatusBadRequest, JobResponse{Error: fmt.Sprintf("line %d: %v", line, err)})
				return
			}
			reqs = append(reqs, req)
		}
		if err := sc.Err(); err != nil {
			writeJSON(w, badBodyStatus(err), JobResponse{Error: err.Error()})
			return
		}
	} else {
		var batch BatchRequest
		if err := json.NewDecoder(body).Decode(&batch); err != nil {
			writeJSON(w, badBodyStatus(err), JobResponse{Error: "decoding batch: " + err.Error()})
			return
		}
		reqs = batch.Jobs
	}

	ctx := r.Context()
	var run *batchRun
	if sweepID != "" {
		sweep, err := s.attachSweep(sweepID, reqs, resume)
		if err != nil {
			writeJSON(w, http.StatusConflict, JobResponse{Error: err.Error(), Code: "sweep_conflict"})
			return
		}
		run = sweep.batchRun
	} else {
		// The request context rides along: a client that disconnects cancels
		// every still-queued job of its batch, freeing the farm for others.
		run = newBatchRun(reqs)
		go s.execute(run, func(_ int, req JobRequest) JobResponse { return s.dispatch(ctx, req) }, nil)
	}
	if ndjson {
		run.stream(ctx, w)
	} else {
		run.collect(ctx, w, s.farm)
	}
}

// maxCompletedSweeps bounds the in-memory journal fallback used when the
// server runs without a sweep directory: finished sweeps stay resumable
// in-process, oldest forgotten first.
const maxCompletedSweeps = 1024

// sweepRegistry tracks the node's running sweeps and, without a journal
// directory, an in-memory record of recently finished ones.
type sweepRegistry struct {
	dir      string       // WithSweepDir; empty keeps journals in memory
	replayed atomic.Int64 // rows answered from a journal across all sweeps

	mu        sync.Mutex
	active    map[string]*sweepRun
	completed map[string]map[int]string
	order     []string // completed ids, oldest first
}

func newSweepRegistry() *sweepRegistry {
	return &sweepRegistry{active: make(map[string]*sweepRun), completed: make(map[string]map[int]string)}
}

// sweepRun is a run detached from its request, plus its journal.
type sweepRun struct {
	*batchRun
	id      string
	journal map[int]string // rows journaled by a previous run of this id

	jmu sync.Mutex
	log *farm.SweepLog // nil when the registry has no directory
	mem map[int]string // journal mirror for the in-memory fallback
}

// record journals one completed row. Journal writes are best-effort: a
// failed append costs only the ability to replay this row after a crash —
// the row's result itself already rides the cache tiers.
func (run *sweepRun) record(row int, key string) {
	run.jmu.Lock()
	defer run.jmu.Unlock()
	if run.log != nil {
		run.log.Record(row, key)
	}
	run.mem[row] = key
}

// sameJob reports whether two requests describe the same job — every field
// farm.Job.Key covers. Trace and TimeoutMS never change a result or a key, so
// a resume may set them differently.
func sameJob(a, b JobRequest) bool {
	a.Trace, a.TimeoutMS = b.Trace, b.TimeoutMS
	return reflect.DeepEqual(a, b)
}

// attachSweep resolves a sweep_id submission to its run: attaching to a
// live run on resume, replaying a finished journal into a new run, or
// starting from scratch. The returned run is always executing (or already
// complete); callers just stream its rows.
func (s *Server) attachSweep(id string, reqs []JobRequest, resume bool) (*sweepRun, error) {
	reg := s.sweeps
	reg.mu.Lock()
	defer reg.mu.Unlock()

	if run, ok := reg.active[id]; ok {
		if !resume {
			return nil, fmt.Errorf("sweep %q is still running; reconnect with resume=true or choose a new id", id)
		}
		// The live run's rows answer the resume, so they must be the rows it
		// asked for — replayRow's rule for a finished journal, held here too.
		if !slices.EqualFunc(run.reqs, reqs, sameJob) {
			return nil, fmt.Errorf("sweep %q is running %d rows that are not the %d jobs the resume sent", id, len(run.reqs), len(reqs))
		}
		return run, nil
	}

	var journal map[int]string // rows a finished run of this id completed
	var log *farm.SweepLog
	if reg.dir != "" {
		if !resume {
			// Starting over under a reused id: the stale journal must not
			// answer the new sweep's rows.
			if err := farm.RemoveSweepLog(reg.dir, id); err != nil {
				return nil, fmt.Errorf("resetting sweep journal: %w", err)
			}
		}
		var err error
		log, err = farm.OpenSweepLog(reg.dir, id)
		if err != nil {
			return nil, err
		}
		if resume {
			journal = log.Rows()
		}
	} else if resume {
		journal = reg.completed[id] // a finished run's mirror: nobody writes it any more
	}

	// The run's journal mirror starts from the replayed rows so a sweep
	// resumed twice still knows every completed row.
	mem := make(map[int]string, len(journal))
	maps.Copy(mem, journal)
	run := &sweepRun{batchRun: newBatchRun(reqs), id: id, journal: journal, log: log, mem: mem}
	reg.active[id] = run
	go s.execute(run.batchRun,
		func(i int, req JobRequest) JobResponse { return s.sweepRow(run, i, req) },
		func() { reg.finish(run) })
	return run, nil
}

// sweepRow answers one row: from the journal + cache when a previous run
// already computed it, through the normal dispatch path otherwise. Error
// rows are never journaled — a resume retries them.
func (s *Server) sweepRow(run *sweepRun, i int, req JobRequest) JobResponse {
	if key, ok := run.journal[i]; ok {
		if resp, ok := s.replayRow(req, key); ok {
			s.sweeps.replayed.Add(1)
			return resp
		}
	}
	resp := s.dispatch(context.Background(), req)
	if resp.err == nil && resp.Error == "" && resp.Key != "" {
		run.record(i, resp.Key)
	}
	return resp
}

// replayRow serves a journaled row from the result cache. The journaled key
// must equal the key of the job the client re-sent for this row — a client
// reusing a sweep id for a different sweep gets its rows recomputed, never
// a wrong cached answer. The key comes from the farm's spec memo: a lookup
// for a spec this process has keyed before, one operand generation (and no
// simulation) for one it has not — a restarted server rebuilds each distinct
// journaled spec once. A cache miss (evicted entry) simply falls back to a
// normal dispatch.
func (s *Server) replayRow(req JobRequest, key string) (JobResponse, bool) {
	start := time.Now()
	req.Trace = false
	job, err := req.lazyJob()
	if err != nil {
		return JobResponse{}, false
	}
	k, err := s.farm.KeyOf(job)
	if err != nil || k != key {
		return JobResponse{}, false
	}
	res, ok := s.farm.CacheGet(key)
	if !ok {
		return JobResponse{}, false
	}
	res.Key, res.Hit = key, true
	return respond(res, time.Since(start)), true
}

// finish retires a run once every row is complete (so nothing records any
// more): the journal file stays on disk for a later resume, while the
// directory-less fallback keeps the row map in memory under the
// completed-sweep bound.
func (reg *sweepRegistry) finish(run *sweepRun) {
	if run.log != nil {
		run.log.Close()
	}
	reg.mu.Lock()
	delete(reg.active, run.id)
	if reg.dir == "" {
		if _, ok := reg.completed[run.id]; !ok {
			reg.order = append(reg.order, run.id)
		}
		reg.completed[run.id] = run.mem
		for len(reg.order) > maxCompletedSweeps {
			delete(reg.completed, reg.order[0])
			reg.order = reg.order[1:]
		}
	}
	reg.mu.Unlock()
}

// activeSweeps reports how many sweeps are currently executing.
func (reg *sweepRegistry) activeSweeps() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.active)
}
