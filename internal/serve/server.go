package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"regreloc/internal/experiment"
	"regreloc/internal/pointstore"
)

// Config tunes a Server. The zero value gets sensible defaults from
// New.
type Config struct {
	// QueueCap bounds the FIFO job queue; a full queue rejects
	// submissions with 429 + Retry-After (default 64).
	QueueCap int
	// Workers is the job worker pool size (default 2). Each worker
	// runs one sweep at a time.
	Workers int
	// PointWorkers bounds the engine's per-job sweep-point pool
	// (experiment.Scale.Workers); 0 means one per core. With several
	// job workers, a small value avoids oversubscribing the host.
	PointWorkers int
	// JobTimeout caps one job's execution (default 10 minutes).
	JobTimeout time.Duration
	// CacheBytes is ignored.
	//
	// Deprecated: whole reports now live in the point store beside the
	// sweep points, under PointCacheBytes.
	CacheBytes int64
	// PointCacheBytes is the in-memory budget of the result store
	// (default 96 MiB; negative disables memoization entirely). The
	// store holds one entry per sweep point, so overlapping grids share
	// their common cells, and one per finished job's canonical report,
	// so an exact repeat is answered without assembly.
	PointCacheBytes int64
	// PointCacheDir, when non-empty, holds the store's disk spill tier
	// and persisted index (points.json).
	PointCacheDir string
	// PointCacheShards sets the point store's shard count (rounded up
	// to a power of two). 0 picks a count matched to GOMAXPROCS. More
	// shards reduce lock contention between worker goroutines resolving
	// points concurrently.
	PointCacheShards int
	// PointCacheSpillQueue bounds the point store's async spill-writer
	// backlog, in entries (0 = the store default). Entry-creating calls
	// throttle past it; reads never block on it.
	PointCacheSpillQueue int
	// JobRetention is how long a terminal job (and its result bytes)
	// stays queryable by ID after finishing (default 15 minutes). The
	// content-addressed store keeps the result itself far longer; only
	// the per-job status record is pruned.
	JobRetention time.Duration
	// MaxJobs caps the job table; past it terminal jobs are pruned in
	// the order they finished, regardless of age (default 1024). Non-terminal jobs are
	// never pruned — they are already bounded by QueueCap + Workers.
	MaxJobs int
	// MaxBodyBytes bounds request bodies (default 1 MiB).
	MaxBodyBytes int64
	// DefaultFidelity, when non-empty, is applied to submissions that
	// do not name a measurement tier themselves: "sim", "machine",
	// "analytic", or "adaptive". Empty keeps the wire default ("sim").
	// An explicit request fidelity always wins.
	DefaultFidelity string
	// TenantWeights maps tenant names (X-RR-Tenant header values) to
	// dequeue weights for the admission queue's stride scheduler: under
	// backlog a weight-4 tenant's jobs are dispatched 4× as often as a
	// weight-1 tenant's. Unlisted tenants get weight 1.
	TenantWeights map[string]int
	// TenantMaxInflight caps one tenant's active jobs (queued, running,
	// or inline-assembling) — past it submissions are rejected with 429
	// + Retry-After so one tenant cannot monopolize the queue. 0 means
	// no per-tenant cap (the global QueueCap still applies).
	TenantMaxInflight int
	// Logger receives structured request and job logs (default: a
	// stderr logger).
	Logger *log.Logger
	// Remote, when non-nil, is handed the sweep cells a job still
	// needs after the point-store pre-pass (experiment.Scale.Remote).
	// A coordinator sets it to the cluster fan-out client; the local
	// pool and the cluster are interchangeable behind this interface.
	Remote experiment.PointComputer
	// ComputeLimit, when non-nil, rate-limits this process's fresh
	// point simulations (experiment.Scale.ComputeLimit): overload
	// protection for a worker sharing a box, and the per-node capacity
	// model for single-box cluster benchmarks.
	ComputeLimit experiment.Limiter
	// ReadyCheck, when non-nil, adds a condition to /readyz: a non-nil
	// error answers 503 with the error text. A coordinator uses it to
	// stay unready until a quorum of workers is healthy.
	ReadyCheck func() error
	// ExtraMetrics, when non-nil, is invoked at the end of /metrics to
	// append additional Prometheus text (e.g. the cluster client's
	// per-worker series).
	ExtraMetrics func(w io.Writer)
}

func (c Config) withDefaults() Config {
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.PointCacheBytes == 0 {
		c.PointCacheBytes = 96 << 20
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.JobRetention <= 0 {
		c.JobRetention = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.Logger == nil {
		c.Logger = log.New(os.Stderr, "rrserved ", log.LstdFlags|log.Lmsgprefix)
	}
	return c
}

// Server is the experiment-as-a-service daemon core: a bounded job
// queue, a worker pool driving the experiment engine, a single-flight
// table coalescing identical submissions, and the content-addressed
// store of points and reports. Wrap Handler in an http.Server to
// expose it.
type Server struct {
	cfg    Config
	log    *log.Logger
	points *pointstore.Store // nil when memoization is disabled
	met    *metrics
	mux    *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*Job
	// oldest and newest end the job table's list in submission order
	// (Job.older/newer), for listing; a job leaves it in O(1).
	oldest, newest *Job
	// retired queues the table's terminal jobs in the order they turned
	// terminal. Pruning pops from its head only, so admission costs the
	// same whatever the table holds.
	retired  []retiredJob
	inflight map[string]*Job // request key → queued/running job
	queue    *jobQueue
	draining bool
	started  bool
	nextID   int64

	wg sync.WaitGroup

	// runJob executes one job and returns (canonical result bytes,
	// completed points). Tests replace it to control timing; the
	// default is (*Server).runExperiment.
	runJob func(ctx context.Context, j *Job) ([]byte, int, error)

	// pointKeys derives a request's point keys for the submit-time
	// plan (nil when the experiment has no planner). Tests wrap it to
	// count derivations; the default is requestPointKeys.
	pointKeys func(req Request) []string

	// postAdmitHook, when non-nil, runs between a job's admission for
	// inline assembly and the coverage re-check. Tests use it to force
	// the eviction race the re-check defends against.
	postAdmitHook func(j *Job)
}

// New builds a Server (loading the store's disk index, if any). Call
// Start to launch the workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	switch cfg.DefaultFidelity {
	case "", "sim", "machine", "analytic", "adaptive":
	default:
		return nil, fmt.Errorf("serve: unknown default fidelity %q (want sim, machine, analytic, or adaptive)", cfg.DefaultFidelity)
	}
	var points *pointstore.Store
	if cfg.PointCacheBytes > 0 {
		var err error
		points, err = pointstore.NewWith(cfg.PointCacheBytes, cfg.PointCacheDir, pointstore.Options{
			Shards:     cfg.PointCacheShards,
			SpillQueue: cfg.PointCacheSpillQueue,
		})
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		log:        cfg.Logger,
		points:     points,
		met:        newMetrics(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[string]*Job),
		queue:      newJobQueue(cfg.QueueCap, cfg.TenantMaxInflight, cfg.TenantWeights),
	}
	if points != nil {
		points.SetLogf(cfg.Logger.Printf)
	}
	s.runJob = s.runExperiment
	s.pointKeys = requestPointKeys
	s.buildMux()
	return s, nil
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown gracefully stops the server: no new submissions are
// accepted, queued and running jobs get until ctx's deadline to
// finish, then their contexts are cancelled, and finally the store's
// index is persisted and its directory lock released. Safe to call
// once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return errors.New("serve: already shut down")
	}
	s.draining = true
	started := s.started
	s.mu.Unlock()
	s.queue.close() // submit checks draining under mu before enqueueing

	if started {
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			// Deadline passed: cancel every in-flight job and wait for
			// the workers to notice (the engine polls between points).
			s.log.Printf("drain deadline reached, cancelling in-flight jobs")
			s.baseCancel()
			<-done
		}
	} else {
		// Never-started server: no workers will ever drain the queue, so
		// finalize the backlog here — otherwise each job's Done channel
		// never closes and clients waiting on it block forever.
		for _, j := range s.queue.drainRemaining() {
			s.cancelQueued(j, errors.New("server shut down before starting"))
		}
	}
	s.baseCancel()
	if s.points == nil {
		return nil
	}
	var errs []error
	if err := s.points.SaveIndex(); err != nil {
		errs = append(errs, fmt.Errorf("serve: persisting point-store index: %w", err))
	}
	// Release the dir's advisory lock even when the index failed, so a
	// restarting process (or a test reopening the dir) can claim it.
	if err := s.points.Close(); err != nil {
		errs = append(errs, fmt.Errorf("serve: closing point store: %w", err))
	}
	return errors.Join(errs...)
}

// maxInlineMisses bounds how many sweep cells an inline assembly may
// simulate on the submitter's goroutine. The plan said every cell was
// stored, but a memory-only store can evict (and lose) entries between
// planning and assembly; past this budget the job falls back to the
// queue instead of running an unbounded sweep on an HTTP handler.
const maxInlineMisses = 2

// Submit validates and enqueues a request, returning the job (which
// may be an existing in-flight job the submission coalesced onto, or
// an already-done cached job) plus the HTTP status describing what
// happened: 201 (new job queued), 200 (coalesced, report hit, or
// assembled entirely from the point store), 429 (queue full or tenant
// over its in-flight share), 503 (draining), 400 (invalid).
func (s *Server) Submit(req Request) (*Job, int, error) {
	start := time.Now()
	j, status, err := s.submit(req)
	s.met.observeSubmit(req.tenantName(), status, time.Since(start).Seconds())
	return j, status, err
}

func (s *Server) submit(req Request) (*Job, int, error) {
	if req.Fidelity == "" && s.cfg.DefaultFidelity != "" {
		req.Fidelity = s.cfg.DefaultFidelity
	}
	if err := req.validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	req = req.normalize()
	key := req.Key()

	// A stored report answers the request outright (admit serves it), so
	// the plan below would be wasted work. The probe is uncounted:
	// admit's report lookup does the hit/miss accounting. Should the
	// report be evicted before admit looks, the job is simply queued
	// without a plan.
	reportStored := s.points != nil && s.points.Contains(key)

	// Plan the request against the point store before taking the
	// server lock: computing a large grid's keys is pure hashing, and
	// coverage only needs the store's own lock. For adaptive requests
	// the plan covers the sim tier — the refinement the job will run —
	// because req.scale() resolves adaptive to the simulator.
	var keys []string
	var planned, covered int
	if s.points != nil && !reportStored {
		keys = s.pointKeys(req)
		planned = len(keys)
		covered = s.points.Covered(keys)
	}

	// Adaptive submissions get their analytic answer right here on the
	// submit path, before admission: the closed-form tier costs
	// microseconds per cell, so the client leaves with a complete
	// approximate report no matter what the queue looks like. A stored
	// report is the refined answer already, so it needs no partial.
	var partial *partialResult
	if req.adaptive() && !reportStored {
		p, err := s.analyticPhase(req)
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("analytic phase: %w", err)
		}
		partial = p
	}

	j, status, inline, err := s.admit(req, key, planned, covered, partial)
	if err == nil {
		s.met.incFidelityJob(req.Fidelity)
	}
	if !inline {
		return j, status, err
	}
	if h := s.postAdmitHook; h != nil {
		h(j)
	}
	// Fully covered at planning time: every cell decodes from the point
	// store, so the "sweep" is cheap assembly and can run on the
	// submitter's goroutine instead of burning queue capacity and a
	// worker slot. But coverage is a moment-in-time fact: entries
	// evicted since planning are gone for good on a memory-only store,
	// and the engine's decode-miss fallback would then simulate them
	// right here — bypassing the queue, the worker pool, and the job
	// timeout. Re-check at assembly time and requeue past a small miss
	// budget.
	if missing := len(keys) - s.points.Covered(keys); missing > maxInlineMisses {
		s.log.Printf("job %s lost %d/%d planned cells to eviction, queueing instead of inline assembly",
			j.ID, missing, len(keys))
		if qerr := s.queue.enqueue(j); qerr != nil {
			s.dropJob(j)
			s.met.incRejected()
			return nil, http.StatusTooManyRequests, qerr
		}
		j.markEnqueued()
		return j, http.StatusCreated, nil
	}
	s.runOne(j)
	return j, http.StatusOK, nil
}

// report probes the store for a finished job's canonical report bytes.
// The probe is uncounted in the store (its Counters describe point
// resolution) and counted here as a report hit or miss instead.
func (s *Server) report(key string) ([]byte, bool) {
	if s.points != nil {
		if data, ok := s.points.Get(key); ok {
			s.met.incReportHit()
			return data, true
		}
	}
	s.met.incReportMiss()
	return nil, false
}

// requestPointKeys is the default Server.pointKeys: the request's
// point keys from its experiment's planner.
func requestPointKeys(req Request) []string {
	if e, ok := experiment.Get(req.Experiment); ok && e.PointKeys != nil {
		return e.PointKeys(req.Seed, req.scale(), req.grids())
	}
	return nil
}

// dropJob unregisters a job that was admitted but could not be run or
// queued, releasing its tenant slot and context registration.
func (s *Server) dropJob(j *Job) {
	s.mu.Lock()
	s.unlistLocked(j)
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
	s.queue.release(j.tenant)
	j.cancel()
}

// admit is Submit's locked section. It returns inline=true when the
// job was admitted for synchronous point-store assembly (registered
// in-flight and holding a tenant slot, but not queued); the caller
// must then run or requeue it.
func (s *Server) admit(req Request, key string, planned, covered int, partial *partialResult) (j *Job, status int, inline bool, err error) {
	tenant := req.tenantName()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, http.StatusServiceUnavailable, false, errors.New("server is draining")
	}
	s.pruneJobsLocked()

	// Single-flight: identical request already queued or running. The
	// rider consumes no queue slot or tenant share — it attaches to
	// work already admitted (possibly under another tenant).
	if j, ok := s.inflight[key]; ok {
		j.mu.Lock()
		j.coalesced++
		j.mu.Unlock()
		s.met.incCoalesced()
		return j, http.StatusOK, false, nil
	}

	// The report is already stored: materialize a terminal job so the
	// client gets the uniform job interface.
	if data, ok := s.report(key); ok {
		// The refined result already exists, so an adaptive partial
		// would only be a worse answer to the same question: drop it.
		// A request that skipped planning because its report was stored
		// reports the report's cells, all covered, as its plan.
		if planned == 0 {
			if e, ok := experiment.Get(req.Experiment); ok && e.Cells != nil {
				planned = e.Cells(req.grids())
				covered = planned
			}
		}
		j := s.newJobLocked(key, req, planned, covered, nil)
		j.cached = true
		j.state = StateDone
		j.result = data
		j.finished = time.Now()
		j.appendEventLocked(Event{Type: EventState, State: StateDone, Cached: true})
		close(j.done)
		j.cancel() // born terminal: release its context registration now
		s.retireLocked(j)
		s.met.incSubmitted()
		s.met.jobFinished(req.Experiment, StateDone, -1, false)
		return j, http.StatusOK, false, nil
	}

	// Admission control: the job will do real work, so it needs a
	// tenant in-flight slot — held from here until the job reaches a
	// terminal state (released next to every jobFinished call).
	if err := s.queue.reserve(tenant); err != nil {
		s.met.incRejected()
		return nil, http.StatusTooManyRequests, false, err
	}
	s.met.addPlan(int64(planned), int64(covered))

	// Point-store fast path: the report missed (different grid shape,
	// or evicted) but every point the request addresses is
	// already stored. Hand the job back for inline assembly.
	if planned > 0 && covered == planned {
		j := s.newJobLocked(key, req, planned, covered, partial)
		s.inflight[key] = j
		s.met.incSubmitted()
		return j, http.StatusOK, true, nil
	}

	// Bounded, tenant-fair queue with backpressure.
	j = s.newJobLocked(key, req, planned, covered, partial)
	if qerr := s.queue.enqueue(j); qerr != nil {
		s.unlistLocked(j)
		j.cancel() // never ran: release its context registration
		s.queue.release(tenant)
		s.met.incRejected()
		return nil, http.StatusTooManyRequests, false, qerr
	}
	j.markEnqueued()
	s.inflight[key] = j
	s.met.incSubmitted()
	return j, http.StatusCreated, false, nil
}

// newJobLocked allocates and registers a job. Caller holds s.mu. A
// non-nil partial makes the job adaptive: the analytic answer attaches
// before any other event, so EventPartial is always event 1 and every
// subscriber knows a partial is fetchable before they see the job move.
func (s *Server) newJobLocked(key string, req Request, planned, covered int, partial *partialResult) *Job {
	s.nextID++
	ctx, cancel := context.WithCancel(s.baseCtx)
	j := &Job{
		ID:         fmt.Sprintf("j%06d", s.nextID),
		Key:        key,
		Req:        req,
		Created:    time.Now(),
		tenant:     req.tenantName(),
		planPoints: planned,
		planCached: covered,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		eventWake:  make(chan struct{}),
		state:      StateQueued,
	}
	if partial != nil {
		j.partial = partial.data
		j.analyticEff = partial.eff
		j.appendEventLocked(Event{Type: EventPartial, Fidelity: "analytic", Total: partial.cells})
	}
	s.jobs[j.ID] = j
	j.older = s.newest
	if s.newest != nil {
		s.newest.newer = j
	} else {
		s.oldest = j
	}
	s.newest = j
	return j
}

// unlistLocked removes j from the job table, if it is still there.
// Caller holds s.mu.
func (s *Server) unlistLocked(j *Job) {
	if s.jobs[j.ID] != j {
		return
	}
	delete(s.jobs, j.ID)
	if j.older != nil {
		j.older.newer = j.newer
	} else {
		s.oldest = j.newer
	}
	if j.newer != nil {
		j.newer.older = j.older
	} else {
		s.newest = j.older
	}
	j.older, j.newer = nil, nil
}

// listedLocked returns the job table in submission order. Caller holds
// s.mu.
func (s *Server) listedLocked() []*Job {
	jobs := make([]*Job, 0, len(s.jobs))
	for j := s.oldest; j != nil; j = j.newer {
		jobs = append(jobs, j)
	}
	return jobs
}

// partialResult is the submit-path analytic answer of an adaptive job:
// the encoded report plus the per-cell efficiency index the refinement
// compares simulator points against.
type partialResult struct {
	data  []byte
	eff   map[string]float64
	cells int
}

// analyticPhase runs an adaptive request's grid through the analytic
// backend synchronously. It shares the server's point store, so
// repeated adaptive submissions over overlapping grids assemble their
// partials from cached analytic-tier points.
func (s *Server) analyticPhase(req Request) (*partialResult, error) {
	e, ok := experiment.Get(req.Experiment)
	if !ok || e.RunGrid == nil {
		return nil, fmt.Errorf("experiment %q has no grid sweep", req.Experiment)
	}
	sc := req.scale()
	sc.Fidelity = experiment.FidelityAnalytic
	sc.PointStore = s.points
	rep := e.RunGrid(req.Seed, sc, req.grids())
	if rep.Err != nil {
		return nil, rep.Err
	}
	data, err := encodeReport(rep)
	if err != nil {
		return nil, err
	}
	eff := make(map[string]float64, len(rep.Points))
	for _, m := range rep.Points {
		eff[cellID(m.Panel, m.Arch, m.F, m.R, m.L)] = m.Eff
	}
	return &partialResult{data: data, eff: eff, cells: len(rep.Points)}, nil
}

// retiredJob is one entry of Server.retired: a terminal job and when it
// entered the queue.
type retiredJob struct {
	j  *Job
	at time.Time
}

// retireLocked queues a job that just turned terminal for pruning.
// Every place a job turns terminal calls it once. Caller holds s.mu.
func (s *Server) retireLocked(j *Job) {
	s.retired = append(s.retired, retiredJob{j, time.Now()})
}

// pruneJobsLocked bounds the job table: terminal jobs past the
// retention window are dropped, and while the table exceeds MaxJobs the
// earliest-finished terminal jobs go too. Queued and running jobs are
// never in s.retired, so they are never pruned. Both rules pop from the
// head of s.retired, which is in finish order, so each submission pays
// only for the jobs it prunes. Result bytes live on in the
// content-addressed store; only the per-job status record (and its ID)
// disappears, so a long-running daemon's memory tracks the store
// budget, not every submission ever made. Caller holds s.mu.
func (s *Server) pruneJobsLocked() {
	cutoff := time.Now().Add(-s.cfg.JobRetention)
	for len(s.retired) > 0 {
		r := s.retired[0]
		if len(s.jobs) <= s.cfg.MaxJobs && !r.at.Before(cutoff) {
			return
		}
		s.retired[0] = retiredJob{} // let the popped job be collected
		s.retired = s.retired[1:]
		s.unlistLocked(r.j) // no-op if dropJob already removed it
	}
}

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel cancels a job: queued jobs finalize immediately, running
// jobs have their context cancelled and finalize when the engine
// notices. It reports whether the job existed and was non-terminal.
func (s *Server) Cancel(id string) (*Job, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.cancel()
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if queued {
		// Finalize now; the worker skips already-terminal jobs.
		s.cancelQueued(j, context.Canceled)
	}
	return j, true
}

// cancelQueued finalizes a job that never started as canceled with err
// and releases what it held. A no-op if the job is already terminal:
// whoever finalized it first did the accounting.
func (s *Server) cancelQueued(j *Job, err error) {
	if !s.finish(j, StateCanceled, nil, err) {
		return
	}
	s.queue.release(j.tenant)
	s.met.jobFinished(j.Req.Experiment, StateCanceled, -1, false)
}

// finish turns j terminal and reports whether this call did. Leaving
// the in-flight table, finalizing and queueing for pruning share one
// critical section under s.mu: admit checks inflight before the stored
// report, so it never sees a job both in flight and done (a
// resubmission hits the report just stored, never coalesces onto the
// finished job), and s.retired stays in finish order.
func (s *Server) finish(j *Job, st State, result []byte, err error) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !j.finalize(st, result, err) {
		return false
	}
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.retireLocked(j)
	return true
}

// worker drains the queue until Shutdown closes it (and the backlog
// is popped dry).
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if wait := j.queueWait(); wait >= 0 {
			s.met.observeQueueWait(wait.Seconds())
		}
		s.runOne(j)
	}
}

// runOne executes a single job end to end.
func (s *Server) runOne(j *Job) {
	if err := j.ctx.Err(); err != nil {
		// Cancelled (or shut down) while queued. A no-op if Cancel
		// already finalized and accounted for the job.
		s.cancelQueued(j, err)
		return
	}
	// Claim the job. The transition fails only when Cancel finalized it
	// between the context check above and here — the canceler saw
	// state == queued, so it already unregistered and counted the job;
	// running it anyway would re-finalize and double-close done.
	if !j.setState(StateRunning) {
		return
	}

	ctx, cancel := context.WithTimeout(j.ctx, s.cfg.JobTimeout)
	defer cancel()
	s.met.jobStarted()
	s.met.incRuns()
	start := time.Now()

	data, points, err := s.runJob(ctx, j)
	seconds := time.Since(start).Seconds()
	s.met.addPoints(int64(points))

	var final State
	switch {
	case err == nil:
		final = StateDone
		if s.points != nil {
			s.points.Put(j.Key, data)
			if sk, ok := j.Req.simKey(); ok {
				// An adaptive job's converged bytes ARE the sim report; warm
				// the sim-tier twin so a later fidelity=sim submission of
				// the same request is a report hit.
				s.points.Put(sk, data)
			}
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		final = StateCanceled
	default:
		final = StateFailed
	}
	if final != StateDone {
		data = nil
	}
	s.finish(j, final, data, err)
	s.queue.release(j.tenant)
	s.met.jobFinished(j.Req.Experiment, final, seconds, true)
	s.log.Printf("job %s %s tenant=%s experiment=%s points=%d elapsed=%.3fs",
		j.ID, final, j.tenant, j.Req.Experiment, points, seconds)
}

// runExperiment is the default job runner: it resolves the experiment
// and drives the engine with the job's context and a progress hook.
func (s *Server) runExperiment(ctx context.Context, j *Job) ([]byte, int, error) {
	e, ok := experiment.Get(j.Req.Experiment)
	if !ok {
		return nil, 0, fmt.Errorf("experiment %q disappeared from the registry", j.Req.Experiment)
	}
	sc := j.Req.scale()
	sc.Workers = s.cfg.PointWorkers
	sc.Progress = func(done, total int) { j.setProgress(done, total) }
	sc.PointStore = s.points
	sc.Remote = s.cfg.Remote
	sc.ComputeLimit = s.cfg.ComputeLimit
	if j.Req.adaptive() {
		// Stream each simulator cell as it lands: the job compares it
		// against its analytic prediction and batches cells events.
		sc.OnPoint = func(ms []experiment.Measurement) {
			for _, d := range j.noteRefined(ms) {
				s.met.observeRefined(d.AbsErr)
			}
		}
	}
	sc = sc.WithContext(ctx)

	var rep *experiment.Report
	if g := j.Req.grids(); !g.Empty() && e.RunGrid != nil {
		rep = e.RunGrid(j.Req.Seed, sc, g)
	} else {
		rep = e.Run(j.Req.Seed, sc)
	}
	if rep.Err != nil {
		return nil, len(rep.Points), rep.Err
	}
	data, err := encodeReport(rep)
	if err != nil {
		return nil, len(rep.Points), err
	}
	if j.Req.adaptive() {
		// Flush the refined-cell buffer and publish the measured error
		// bounds before runOne appends the terminal state event.
		j.finishRefinement()
	}
	return data, len(rep.Points), nil
}

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Server) QueueDepth() int { return s.queue.depth() }

// Points returns the server's point store (nil when point memoization
// is disabled). A worker-mode daemon hands it to the cluster compute
// handler so shard requests share the serving path's store.
func (s *Server) Points() *pointstore.Store { return s.points }

// PointCounters returns the point store's event counters (zero values
// when point memoization is disabled), for metrics and benchmarks that
// need to know how much simulation a request actually cost.
func (s *Server) PointCounters() pointstore.Counters {
	if s.points == nil {
		return pointstore.Counters{}
	}
	return s.points.Counters()
}

// retryAfterSeconds estimates how long a rejected client should wait:
// the queue needs to drain one slot, which takes about one mean job
// duration per busy worker.
func (s *Server) retryAfterSeconds() int {
	mean := s.met.meanJobSeconds()
	if mean <= 0 {
		return 1
	}
	est := int(mean*float64(s.QueueDepth()+1)/float64(s.cfg.Workers)) + 1
	if est < 1 {
		est = 1
	}
	if est > 120 {
		est = 120
	}
	return est
}

// ---- HTTP layer ----

// Handler returns the daemon's HTTP handler (with request logging).
func (s *Server) Handler() http.Handler { return s.logged(s.mux) }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
}

// statusWriter captures the response code for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// Flush forwards to the wrapped writer so the SSE endpoint still sees
// an http.Flusher through the request-log wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		s.log.Printf("http %s %s status=%d bytes=%d elapsed=%.1fms",
			r.Method, r.URL.Path, sw.status, sw.bytes,
			float64(time.Since(start).Microseconds())/1000)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expInfo struct {
		ID          string `json:"id"`
		Title       string `json:"title"`
		Description string `json:"description"`
		Grids       bool   `json:"grids"` // accepts F/R/L overrides
	}
	var out []expInfo
	for _, e := range experiment.All() {
		out = append(out, expInfo{e.ID, e.Title, e.Description, e.RunGrid != nil})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooLarge.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	req.Tenant = r.Header.Get("X-RR-Tenant")
	j, status, err := s.Submit(req)
	if err != nil {
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, status, j.Status(false))
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := s.listedLocked()
	s.mu.Unlock()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.Status(false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	withResult := r.URL.Query().Get("result") != "false"
	writeJSON(w, http.StatusOK, j.Status(withResult))
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, j.Status(false))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := gauges{
		queueDepth: s.QueueDepth(),
		queueCap:   s.cfg.QueueCap,
		tenants:    s.queue.tenantsSnapshot(),
	}
	if s.points != nil {
		g.pointStore = true
		g.points = s.points.Counters()
		g.pointEntries = s.points.Len()
		g.pointDisk = s.points.DiskLen()
		g.pointBytes = s.points.Bytes()
		g.pointShards = s.points.Shards()
		g.pointSpillPending = s.points.SpillPending()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	s.met.writeProm(&b, g)
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(&b)
	}
	w.Write([]byte(b.String()))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ready := s.started && !s.draining
	s.mu.Unlock()
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	if s.cfg.ReadyCheck != nil {
		if err := s.cfg.ReadyCheck(); err != nil {
			// Not ready for traffic (e.g. a coordinator short of its
			// worker quorum): tell load balancers to look elsewhere.
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "%v\n", err)
			return
		}
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}
