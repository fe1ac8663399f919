package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/farm"
)

// Resumable sweeps. A /batch request carrying ?sweep_id=<id> detaches the
// sweep's execution from the request: the server computes every row to
// completion even if the client disconnects mid-stream, and journals each
// completed row's farm key (farm.SweepLog — CRC-framed appends beside the
// disk store's atomic-rename result files). A reconnect with &resume=true
// attaches to the still-running sweep, or — after a crash or restart —
// replays every journaled row straight from the result cache and computes
// only the remainder. Either way the client's view is byte-identical to an
// uninterrupted run: rows are keyed by content, so a replayed row carries
// exactly the bytes the original execution produced.

// maxCompletedSweeps bounds the in-memory journal fallback used when the
// server runs without a sweep directory: finished sweeps stay resumable
// in-process, oldest forgotten first.
const maxCompletedSweeps = 1024

// sweepRegistry tracks the node's running sweeps and, without a journal
// directory, an in-memory record of recently finished ones.
type sweepRegistry struct {
	dir string

	replayed atomic.Int64 // rows answered from a journal across all sweeps

	mu        sync.Mutex
	active    map[string]*sweepRun
	completed map[string]map[int]string
	order     []string // completed ids, oldest first
}

func newSweepRegistry(dir string) *sweepRegistry {
	return &sweepRegistry{
		dir:       dir,
		active:    make(map[string]*sweepRun),
		completed: make(map[string]map[int]string),
	}
}

// sweepRun is one sweep's execution state. rows[i] is written exactly once,
// before ready[i] closes; done closes after every row is written, so readers
// ordering on those channels never race the writers.
type sweepRun struct {
	id      string
	journal map[int]string // rows journaled by a previous run of this id
	rows    []JobResponse
	ready   []chan struct{}
	done    chan struct{}

	replayed atomic.Int64 // rows answered from the journal + cache

	mu  sync.Mutex
	log *farm.SweepLog // nil when the registry has no directory
	mem map[int]string // journal mirror for the in-memory fallback
}

// record journals one completed row. Journal writes are best-effort: a
// failed append costs only the ability to replay this row after a crash —
// the row's result itself already rides the cache tiers.
func (run *sweepRun) record(row int, key string) {
	run.mu.Lock()
	defer run.mu.Unlock()
	if run.log != nil {
		run.log.Record(row, key)
	}
	run.mem[row] = key
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
		if len(run.rows) != len(reqs) {
			return nil, fmt.Errorf("sweep %q is running with %d rows but the resume sent %d", id, len(run.rows), len(reqs))
		}
		return run, nil
	}

	journal := make(map[int]string)
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
		for row, key := range reg.completed[id] {
			journal[row] = key
		}
	}

	// The run's journal mirror starts from the replayed rows so a sweep
	// resumed twice still knows every completed row.
	mem := make(map[int]string, len(journal))
	for row, key := range journal {
		mem[row] = key
	}
	run := &sweepRun{
		id:      id,
		journal: journal,
		rows:    make([]JobResponse, len(reqs)),
		ready:   make([]chan struct{}, len(reqs)),
		done:    make(chan struct{}),
		log:     log,
		mem:     mem,
	}
	for i := range run.ready {
		run.ready[i] = make(chan struct{})
	}
	reg.active[id] = run
	go s.runSweep(run, reqs)
	return run, nil
}

// runSweep executes a sweep detached from any request context, with the
// same bounded fan-out as an attached batch.
func (s *Server) runSweep(run *sweepRun, reqs []JobRequest) {
	sem := make(chan struct{}, s.fanout())
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, req JobRequest) {
			defer func() { <-sem; wg.Done() }()
			run.rows[i] = s.sweepRow(run, i, req)
			close(run.ready[i])
		}(i, reqs[i])
	}
	wg.Wait()
	s.sweeps.finish(run)
}

// sweepRow answers one row: from the journal + cache when a previous run
// already computed it, through the normal dispatch path otherwise. Error
// rows are never journaled — a resume retries them.
func (s *Server) sweepRow(run *sweepRun, i int, req JobRequest) JobResponse {
	if key, ok := run.journal[i]; ok {
		if resp, ok := s.replayRow(req, key); ok {
			run.replayed.Add(1)
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
	if req.ExecWorkers == 0 {
		req.ExecWorkers = s.execWorkers
	}
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

// finish retires a completed run: the journal file stays on disk for a
// later resume, while the directory-less fallback keeps the row map in
// memory under the completed-sweep bound.
func (reg *sweepRegistry) finish(run *sweepRun) {
	run.mu.Lock()
	if run.log != nil {
		run.log.Close()
		run.log = nil
	}
	mem := run.mem
	run.mu.Unlock()

	reg.mu.Lock()
	delete(reg.active, run.id)
	if reg.dir == "" {
		if _, ok := reg.completed[run.id]; !ok {
			reg.order = append(reg.order, run.id)
		}
		reg.completed[run.id] = mem
		for len(reg.order) > maxCompletedSweeps {
			delete(reg.completed, reg.order[0])
			reg.order = reg.order[1:]
		}
	}
	reg.mu.Unlock()
	close(run.done)
}

// activeSweeps reports how many sweeps are currently executing.
func (reg *sweepRegistry) activeSweeps() int {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.active)
}

// streamSweep streams a run's rows as NDJSON in submission order, flushing
// per row. A vanished client ends the stream but never the sweep: the run
// keeps computing and journaling, and a resume replays what it missed.
func (s *Server) streamSweep(w http.ResponseWriter, ctx context.Context, run *sweepRun) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	enc := json.NewEncoder(buf)
	for i := range run.rows {
		select {
		case <-run.ready[i]:
		case <-ctx.Done():
			return
		}
		buf.Reset()
		if err := enc.Encode(run.rows[i]); err != nil {
			fmt.Fprintf(buf, "{\"error\":%q}\n", err.Error())
		}
		if _, err := w.Write(buf.Bytes()); err != nil {
			return
		}
		if fl != nil {
			fl.Flush()
		}
	}
}

// collectSweep waits for the whole run and answers with the JSON batch
// shape. A client gone before completion changes nothing for the sweep.
func (s *Server) collectSweep(w http.ResponseWriter, ctx context.Context, run *sweepRun) {
	select {
	case <-run.done:
	case <-ctx.Done():
		return
	}
	writeJSON(w, http.StatusOK, BatchResponse{Results: run.rows, Stats: s.farm.Stats()})
}
