// Package serve is the long-running analysis service of the Scale4Edge
// ecosystem: an HTTP job server that accepts the one-shot CLI workloads
// — emulation runs, fault-injection campaigns, static WCET analysis,
// QTA co-simulation, guest-binary lint — as JSON jobs over uploaded
// guest binaries and executes them on a bounded worker pool. It is the
// piece that turns the toolbox into an operable system: a bounded queue
// that sheds load with 429 instead of growing without limit, per-job
// context deadlines and cancellation threaded into the analysis entry
// points (fault.CampaignContext, wcet.AnalyzeContext, qta.CoSim,
// vp.RunContext), per-job panic recovery that marks the job errored
// without killing its worker, graceful shutdown that drains in-flight
// jobs, and first-class observability through the internal/obs registry
// (/metrics, /healthz, per-job-type latency histograms, queue-depth
// gauge, shed counter). Every job runs once: its analyses are
// deterministic, so a failure is reported, not retried. The queue is one
// FIFO list of pending jobs and campaign shards, whose length is the
// queue depth. Jobs over the same guest binary share
// one golden run and one compiled translation pool (emu.TBPool), so a
// burst of campaign jobs compiles the working set once, not once per
// job: the golden run of the binary's first campaign publishes the pool
// (fault.Prepare), later campaign and run jobs adopt it, and the pool's
// tag compares timing profiles by value, so each job's fresh profile
// matches. The cache keeps the most recently used binaries only.
//
// The durability layer (internal/serve/store) journals every accepted
// submission and terminal transition to an append-only JSONL file: a
// restarted server replays the journal, restores finished jobs' status
// and results, rebuilds the idempotency-key index, and re-queues jobs
// that were queued or running at the crash. Fault campaigns can be
// sharded into contiguous mutant-index ranges executed as independent
// sub-jobs on the worker pool and merged bit-identically to the
// unsharded run, and every job's lifecycle (queued, running, campaign
// progress, terminal) streams as server-sent events from
// GET /v1/jobs/{id}/events.
package serve

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/serve/store"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// Config parametrizes a server. The zero value is usable: two workers,
// a 16-deep queue, 60 s job timeout.
type Config struct {
	// Workers is the number of parallel job executors (<=0 means 2).
	Workers int
	// QueueDepth bounds the number of accepted-but-not-started jobs
	// (<=0 means 16). A full queue sheds new submissions with
	// ErrQueueFull (HTTP 429 + Retry-After) instead of buffering
	// without limit.
	QueueDepth int
	// DefaultTimeout caps a job's execution wall-clock when the request
	// does not set one (<=0 means 60 s).
	DefaultTimeout time.Duration
	// DefaultBudget is the instruction budget when the request leaves
	// it zero (default 10M, the s4e-fault default).
	DefaultBudget uint64
	// MaxBodyBytes bounds the request body (default 16 MiB).
	MaxBodyBytes int64
	// MaxTerminal bounds how many finished jobs stay in memory (<=0
	// means 4096). When exceeded, the oldest terminal jobs are evicted
	// (counted by s4e_serve_evicted_total); the journal, when
	// configured, keeps the full history.
	MaxTerminal int
	// TerminalTTL additionally evicts finished jobs older than this
	// (0 disables TTL eviction). Enforced on terminal transitions.
	TerminalTTL time.Duration
	// Store, when non-nil, is the persistent job journal: accepted
	// submissions and terminal transitions are appended to it, and New
	// replays it — finished jobs come back with status and result,
	// jobs queued or running at the crash are re-queued. The caller
	// owns the store's lifetime (close it after Shutdown).
	Store *store.Store
	// Metrics receives the service instruments; nil builds a private
	// registry (still exported at /metrics).
	Metrics *obs.Registry
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.DefaultBudget == 0 {
		c.DefaultBudget = 10_000_000
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxTerminal <= 0 {
		c.MaxTerminal = 4096
	}
}

// Sentinel submission errors, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull is returned when the bounded queue sheds a job.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining is returned once shutdown has begun.
	ErrDraining = errors.New("serve: server is draining")
)

// Server is the analysis job service. Create with New, expose
// Handler() over HTTP, stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	start time.Time

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string          // submission order, for listing and eviction
	idem  map[string]string // idempotency key -> job ID
	// pending is the FIFO of accepted jobs and campaign shards that no
	// worker has picked up yet; its length is the queue depth. ready
	// (on mu) is signalled when an item is pushed, a shard finishes or
	// the server starts draining.
	pending  []*Job
	ready    sync.Cond
	draining bool
	wg       sync.WaitGroup

	// binMu guards the per-binary golden/pool cache: bins indexes binLRU,
	// whose front is the most recently used *binEntry.
	binMu  sync.Mutex
	bins   map[binKey]*list.Element
	binLRU list.List

	// instruments
	mDepth       *obs.Gauge
	mDepthPeak   *obs.Gauge
	mInflight    *obs.Gauge
	mShed        *obs.Counter
	mPanics      *obs.Counter
	mEvicted     *obs.Counter
	mIdemHits    *obs.Counter
	mResumed     *obs.Counter
	mReplayed    *obs.Counter
	mJournalErrs *obs.Counter
	mSubscribers *obs.Gauge

	// execOverride replaces the typed executor in tests (panic and
	// scheduling coverage without constructing pathological guests).
	execOverride func(ctx context.Context, j *Job) (any, error)
}

// New builds a server, starts its worker pool, and — when Config.Store
// is set — replays the journal: finished jobs reappear with status and
// result, jobs that were queued or running when the previous process
// died are re-queued for execution.
func New(cfg Config) *Server {
	cfg.fill()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		start: time.Now(),
		jobs:  make(map[string]*Job),
		idem:  make(map[string]string),
		bins:  make(map[binKey]*list.Element),

		mDepth:       reg.Gauge("s4e_serve_queue_depth", "jobs queued and not yet started"),
		mDepthPeak:   reg.Gauge("s4e_serve_queue_depth_peak", "highest queue depth observed"),
		mInflight:    reg.Gauge("s4e_serve_jobs_inflight", "jobs currently executing"),
		mShed:        reg.Counter("s4e_serve_shed_total", "submissions rejected by the full queue"),
		mPanics:      reg.Counter("s4e_serve_panics_total", "job executions recovered from a panic"),
		mEvicted:     reg.Counter("s4e_serve_evicted_total", "terminal jobs evicted by the retention policy"),
		mIdemHits:    reg.Counter("s4e_serve_idempotent_hits_total", "submissions deduplicated by idempotency key"),
		mResumed:     reg.Counter("s4e_serve_jobs_resumed_total", "journal jobs re-queued at restart"),
		mReplayed:    reg.Counter("s4e_serve_jobs_replayed_total", "terminal journal jobs restored at restart"),
		mJournalErrs: reg.Counter("s4e_serve_journal_errors_total", "journal append failures"),
		mSubscribers: reg.Gauge("s4e_serve_event_subscribers", "open /events streams"),
	}
	s.ready.L = &s.mu
	reg.Gauge("s4e_serve_workers", "parallel job executors").Set(float64(cfg.Workers))
	reg.Gauge("s4e_serve_queue_capacity", "bounded queue capacity").Set(float64(cfg.QueueDepth))
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	if cfg.Store != nil {
		s.replay()
	}
	return s
}

// Metrics returns the server's registry (for embedding the service in a
// larger process, e.g. the benchmark harness reading latency
// histograms).
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Per-request caps on a fault campaign, so one request cannot make the
// server allocate an unbounded mutant plan, shard set or ISR stack
// window.
const (
	maxFaultMutants = 1 << 20
	maxFaultShards  = 1 << 10
	maxStackBytes   = 1 << 20
)

// Per-request caps on the other sized fields: the instruction budget
// (per run, per mutant), the wall-clock timeout and the number of IRT
// trigger points. Each sits far above what a sensible job asks for; a
// larger value is a client error (400), not a job that holds a worker
// for hours.
const (
	maxBudget     = 1 << 36
	maxTimeoutMS  = 60 * 60 * 1000
	maxIRQSamples = 1 << 16
)

// checkPlanSize rejects a fault spec whose mutant counts are negative,
// whose plan, shard or stack-window size exceeds the caps, or whose
// stack window is not whole words.
// Each count is checked before summing, so the sum cannot overflow.
func checkPlanSize(f *FaultSpec) error {
	total := 0
	for _, n := range []int{f.GPRTransient, f.GPRPermanent, f.MemPermanent, f.CodeBitflip} {
		if n < 0 || n > maxFaultMutants {
			return fmt.Errorf("fault counts must be in [0, %d], got %d", maxFaultMutants, n)
		}
		total += n
	}
	if total > maxFaultMutants {
		return fmt.Errorf("fault plan has %d mutants, the limit is %d", total, maxFaultMutants)
	}
	if f.Shards < 0 || f.Shards > maxFaultShards {
		return fmt.Errorf("fault shards must be in [0, %d], got %d", maxFaultShards, f.Shards)
	}
	if f.StackBytes > maxStackBytes || f.StackBytes%4 != 0 {
		return fmt.Errorf("fault stack_bytes must be a multiple of 4 and <= %d, got %d", maxStackBytes, f.StackBytes)
	}
	return nil
}

// buildJob validates a request into an executable job (not yet
// accepted: the caller enqueues it under the server mutex).
func (s *Server) buildJob(req Request) (*Job, error) {
	if !jobTypes[req.Type] {
		return nil, fmt.Errorf("unknown job type %q (run, fault, wcet, qta, lint, subset, irt)", req.Type)
	}
	if req.Budget > maxBudget {
		return nil, fmt.Errorf("budget must be <= %d, got %d", uint64(maxBudget), req.Budget)
	}
	if req.TimeoutMS < 0 || req.TimeoutMS > maxTimeoutMS {
		return nil, fmt.Errorf("timeout_ms must be in [0, %d], got %d", maxTimeoutMS, req.TimeoutMS)
	}
	if req.Type == "irt" {
		if req.IRQ == nil {
			return nil, fmt.Errorf("irt job needs an irq spec")
		}
		if req.IRQ.Samples < 0 || req.IRQ.Samples > maxIRQSamples {
			return nil, fmt.Errorf("irt samples must be in [0, %d], got %d", maxIRQSamples, req.IRQ.Samples)
		}
		if req.IRQ.Workload != "" {
			// A named demonstrator brings its own source; resolve it here
			// so the job shares the assembly/idempotency path with every
			// other submission.
			if req.Source != "" || len(req.ELF) > 0 {
				return nil, fmt.Errorf("irt workload %q brings its own source; drop source/elf", req.IRQ.Workload)
			}
			w, ok := workloads.ByName(req.IRQ.Workload)
			if !ok || w.Handler == "" {
				return nil, fmt.Errorf("unknown interrupt workload %q", req.IRQ.Workload)
			}
			req.Source = w.Source
		} else {
			if len(req.ELF) > 0 {
				return nil, fmt.Errorf("irt jobs analyze assembly source (the bound needs the symbol table), not elf uploads")
			}
			if req.IRQ.Handler == "" {
				return nil, fmt.Errorf("irt job needs a handler symbol or a workload name")
			}
		}
	}
	prog, err := resolveProgram(&req)
	if err != nil {
		return nil, err
	}
	if prog.Org < vp.RAMBase || uint64(prog.Org-vp.RAMBase)+uint64(len(prog.Bytes)) > vp.DefaultRAMSize {
		return nil, fmt.Errorf("program image 0x%08x+%d does not fit the platform RAM 0x%08x+%d",
			prog.Org, len(prog.Bytes), uint32(vp.RAMBase), vp.DefaultRAMSize)
	}
	profName := req.Profile
	if profName == "" {
		profName = "edge-small"
	}
	prof, ok := timing.Profiles()[profName]
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profName)
	}
	engine, err := emu.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	if req.Type == "fault" {
		if req.Fault == nil {
			return nil, fmt.Errorf("fault job needs a fault spec")
		}
		if err := checkPlanSize(req.Fault); err != nil {
			return nil, err
		}
		if h := req.Fault.ISRHandler; h != "" {
			if _, ok := prog.Symbols[h]; !ok {
				return nil, fmt.Errorf("isr handler symbol %q not found in program", h)
			}
		}
	}

	j := &Job{
		ID:        newID(),
		Type:      req.Type,
		req:       req,
		prog:      prog,
		profile:   prof,
		engine:    engine,
		budget:    req.Budget,
		timeout:   time.Duration(req.TimeoutMS) * time.Millisecond,
		infer:     req.InferBounds == nil || *req.InferBounds,
		key:       req.IdempotencyKey,
		state:     StateQueued,
		submitted: time.Now(),
	}
	if j.budget == 0 {
		j.budget = s.cfg.DefaultBudget
	}
	if j.timeout <= 0 {
		j.timeout = s.cfg.DefaultTimeout
	}
	return j, nil
}

// Submit validates and enqueues a job, returning its initial status.
// ErrQueueFull and ErrDraining report backpressure and shutdown; other
// errors are invalid requests. A submission whose IdempotencyKey
// matches a retained job returns that job's current status instead of
// enqueuing a duplicate.
func (s *Server) Submit(req Request) (Status, error) {
	st, _, err := s.submit(req)
	return st, err
}

// submit is Submit reporting whether a new job was created (false on an
// idempotency-key hit — the HTTP layer answers 200 instead of 202).
func (s *Server) submit(req Request) (Status, bool, error) {
	// Fast idempotency path: skip validation and assembly entirely when
	// the key already names a retained job.
	if req.IdempotencyKey != "" {
		s.mu.Lock()
		if st, ok := s.idemLookupLocked(req.IdempotencyKey); ok {
			s.mu.Unlock()
			s.mIdemHits.Inc()
			return st, false, nil
		}
		s.mu.Unlock()
	}
	j, err := s.buildJob(req)
	if err != nil {
		return Status{}, false, err
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return Status{}, false, ErrDraining
	}
	// Re-check under the same critical section as the insert, so two
	// concurrent submissions with one key cannot both enqueue.
	if j.key != "" {
		if st, ok := s.idemLookupLocked(j.key); ok {
			s.mu.Unlock()
			s.mIdemHits.Inc()
			return st, false, nil
		}
	}
	if len(s.pending) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.mShed.Inc()
		return Status{}, false, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if j.key != "" {
		s.idem[j.key] = j.ID
	}
	s.pushLocked(j)
	j.emitLocked("queued", nil)
	st := j.status()
	s.mu.Unlock()

	s.journal(store.Record{
		Kind: store.RecordSubmit, JobID: j.ID, Key: j.key, Type: j.Type,
		Request: marshalRequest(j.req),
	})
	s.reg.Counter(fmt.Sprintf("s4e_serve_jobs_submitted_total{type=%q}", j.Type),
		"jobs accepted into the queue").Inc()
	return st, true, nil
}

// idemLookupLocked resolves an idempotency key to a retained job's
// status; callers hold s.mu.
func (s *Server) idemLookupLocked(key string) (Status, bool) {
	id, ok := s.idem[key]
	if !ok {
		return Status{}, false
	}
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// marshalRequest serializes a request for the journal; submission
// already validated it, so failure is not expected (a nil result just
// makes the job non-resumable).
func marshalRequest(req Request) json.RawMessage {
	b, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	return b
}

// journal appends one record to the configured store, counting (but
// otherwise tolerating) failures: durability must not take down the
// serving path.
func (s *Server) journal(rec store.Record) {
	if s.cfg.Store == nil {
		return
	}
	if err := s.cfg.Store.Append(rec); err != nil {
		s.mJournalErrs.Inc()
		return
	}
	s.reg.Counter(fmt.Sprintf("s4e_serve_journal_records_total{kind=%q}", rec.Kind),
		"journal records appended").Inc()
}

// terminalRecord snapshots j's terminal transition for the journal;
// callers hold s.mu.
func terminalRecord(j *Job) store.Record {
	rec := store.Record{
		Kind: store.RecordTerminal, JobID: j.ID,
		State: string(j.state), Error: j.err, Attempts: j.attempts,
	}
	if j.result != nil {
		if b, err := json.Marshal(j.result); err == nil {
			rec.Result = b
		}
	}
	return rec
}

// replay restores the journal at startup: terminal jobs come back as
// status+result stubs, jobs with no terminal record (queued or running
// at the crash) are re-validated and re-queued under their original
// IDs. Runs before New returns; the workers are already live, so
// resumed jobs begin executing immediately.
func (s *Server) replay() {
	type entry struct{ sub, term *store.Record }
	recs := s.cfg.Store.Replay()
	byID := make(map[string]*entry)
	var order []string
	for i := range recs {
		r := &recs[i]
		e := byID[r.JobID]
		if e == nil {
			e = &entry{}
			byID[r.JobID] = e
		}
		switch r.Kind {
		case store.RecordSubmit:
			if e.sub == nil {
				order = append(order, r.JobID)
			}
			e.sub = r
		case store.RecordTerminal:
			e.term = r
		}
	}
	for _, id := range order {
		e := byID[id]
		if e.term != nil {
			s.replayTerminal(id, e.sub, e.term)
		} else {
			s.resume(id, e.sub)
		}
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
}

// replayTerminal restores one finished job from its journal records.
func (s *Server) replayTerminal(id string, sub, term *store.Record) {
	j := &Job{
		ID: id, Type: sub.Type, key: sub.Key, replayed: true,
		state: State(term.State), err: term.Error, attempts: term.Attempts,
		submitted: sub.Time, finished: term.Time,
	}
	if !j.state.terminal() { // corrupt state string: surface, don't re-run
		j.state = StateErrored
		j.err = fmt.Sprintf("journal: unknown terminal state %q", term.State)
	}
	if len(term.Result) > 0 {
		j.result = json.RawMessage(term.Result)
	}
	var data any
	if j.err != "" {
		data = map[string]string{"error": j.err}
	}
	j.events = []Event{
		{Seq: 1, Type: "queued", Time: sub.Time},
		{Seq: 2, Type: string(j.state), Time: term.Time, Data: data},
	}
	j.eventSeq = 2
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	if j.key != "" {
		s.idem[j.key] = id
	}
	s.mu.Unlock()
	s.mReplayed.Inc()
}

// resume re-validates and re-queues one journal job that never reached
// a terminal state. Resumed jobs bypass the queue bound: they were
// already accepted once.
func (s *Server) resume(id string, sub *store.Record) {
	var req Request
	var j *Job
	err := json.Unmarshal(sub.Request, &req)
	if err == nil {
		j, err = s.buildJob(req)
	}
	if err != nil {
		s.resumeFailed(id, sub, err)
		return
	}
	j.ID = id
	j.key = sub.Key
	j.submitted = sub.Time
	j.events = []Event{{Seq: 1, Type: "queued", Time: sub.Time}}
	j.eventSeq = 1
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	if j.key != "" {
		s.idem[j.key] = id
	}
	s.pushLocked(j)
	s.mu.Unlock()
	s.mResumed.Inc()
}

// resumeFailed records a journal job whose request no longer validates
// (journal torn mid-record, profile or engine removed across versions)
// as errored rather than dropping it silently.
func (s *Server) resumeFailed(id string, sub *store.Record, err error) {
	j := &Job{
		ID: id, Type: sub.Type, key: sub.Key, replayed: true,
		state: StateErrored, err: fmt.Sprintf("resume: %v", err),
		submitted: sub.Time, finished: time.Now(),
	}
	j.events = []Event{
		{Seq: 1, Type: "queued", Time: sub.Time},
		{Seq: 2, Type: string(StateErrored), Time: j.finished, Data: map[string]string{"error": j.err}},
	}
	j.eventSeq = 2
	s.mu.Lock()
	s.jobs[id] = j
	s.order = append(s.order, id)
	if j.key != "" {
		s.idem[j.key] = id
	}
	rec := terminalRecord(j)
	s.mu.Unlock()
	s.journal(rec)
	s.mReplayed.Inc()
}

// pushLocked appends a job or shard to the pending list and wakes one
// waiting worker; callers hold s.mu.
func (s *Server) pushLocked(j *Job) {
	s.pending = append(s.pending, j)
	s.noteDepth()
	s.ready.Signal()
}

// noteDepth refreshes the queue-depth gauge and its peak; callers hold
// s.mu.
func (s *Server) noteDepth() {
	d := float64(len(s.pending))
	s.mDepth.Set(d)
	if d > s.mDepthPeak.Value() {
		s.mDepthPeak.Set(d)
	}
}

// Job returns the status of a job by ID.
func (s *Server) Job(id string) (Status, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, false
	}
	return j.status(), true
}

// Result returns a finished job's result payload.
func (s *Server) Result(id string) (Status, any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, nil, false
	}
	return j.status(), j.result, true
}

// Jobs lists every retained job's status in submission order.
func (s *Server) Jobs() []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Status, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel aborts a job: a queued job leaves the pending list and is
// marked cancelled without ever running, a running job has its
// context cancelled and returns partial work promptly (every analysis
// entry point is context-threaded). The second return is false when the
// job is unknown; cancelling a job that already reached a terminal
// state is a no-op reporting that state.
func (s *Server) Cancel(id string) (Status, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return Status{}, false
	}
	var rec *store.Record
	switch j.state {
	case StateQueued:
		r := s.cancelQueuedLocked(j)
		rec = &r
	case StateRunning:
		j.cancelled = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := j.status()
	s.mu.Unlock()
	if rec != nil {
		s.journal(*rec)
	}
	return st, true
}

// cancelQueuedLocked takes a queued job off the pending list and marks
// it cancelled, returning the terminal record to journal after s.mu is
// unlocked; callers hold s.mu.
func (s *Server) cancelQueuedLocked(j *Job) store.Record {
	s.pending = slices.DeleteFunc(s.pending, func(q *Job) bool { return q == j })
	s.noteDepth()
	j.state = StateCancelled
	j.cancelled = true
	s.finishLocked(j)
	return terminalRecord(j)
}

// worker runs pending jobs and shards until the server drains with
// nothing left pending.
func (s *Server) worker() {
	defer s.wg.Done()
	s.serve(func() bool { return s.draining && len(s.pending) == 0 })
}

// serve pops and runs pending jobs and campaign shards in FIFO order,
// waiting on s.ready while the list is empty, until done reports true.
// done is evaluated with s.mu held. Workers call it for their lifetime;
// a sharded campaign's coordinator calls it until its last shard
// finishes, so a campaign completes even with one worker.
func (s *Server) serve(done func() bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !done() {
		if len(s.pending) == 0 {
			s.ready.Wait()
			continue
		}
		j := s.pending[0]
		s.pending[0] = nil
		s.pending = s.pending[1:]
		s.noteDepth()
		s.mu.Unlock()
		if j.shardRun != nil {
			j.shardRun()
		} else {
			s.runJob(j)
		}
		s.mu.Lock()
	}
}

// runJob drives one popped job through execution and its state
// transitions.
func (s *Server) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued { // cancelled between its pop and here
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.attempts = 1
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	j.cancel = cancel
	j.emitLocked("running", nil)
	s.mu.Unlock()
	defer cancel()

	s.mInflight.Add(1)
	defer s.mInflight.Add(-1)

	result, err := s.execute(ctx, j)

	s.mu.Lock()
	j.cancel = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = result
	case j.cancelled:
		j.state = StateCancelled
		j.err = err.Error()
		j.result = result // partial results stay readable
	case errors.Is(err, context.DeadlineExceeded):
		j.state = StateErrored
		j.err = fmt.Sprintf("job timeout after %v: %v", j.timeout, err)
		j.result = result
	default:
		j.state = StateErrored
		j.err = err.Error()
		j.result = result
	}
	s.finishLocked(j)
	rec := terminalRecord(j)
	sec := j.finished.Sub(j.started).Seconds()
	s.mu.Unlock()

	s.journal(rec)
	s.jobSeconds(j.Type).Observe(sec)
}

// finishLocked stamps a terminal transition: finish time, terminal
// event, metrics, retention. Callers hold s.mu, have already set
// j.state, and journal the returned-state snapshot after unlocking.
func (s *Server) finishLocked(j *Job) {
	j.finished = time.Now()
	var data any
	if j.err != "" {
		data = map[string]string{"error": j.err}
	}
	j.emitLocked(string(j.state), data)
	s.finishMetrics(j)
	s.evictLocked()
}

// finishMetrics counts a terminal transition; callers hold s.mu.
func (s *Server) finishMetrics(j *Job) {
	s.reg.Counter(
		fmt.Sprintf("s4e_serve_jobs_finished_total{type=%q,state=%q}", j.Type, string(j.state)),
		"jobs by terminal state").Inc()
}

// evictLocked applies the retention policy: when more than MaxTerminal
// finished jobs are in memory, the oldest are dropped; with a
// TerminalTTL, finished jobs older than it are dropped regardless of
// count. Queued and running jobs are never evicted. The journal (when
// configured) retains the full history. Callers hold s.mu.
func (s *Server) evictLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].state.terminal() {
			terminal++
		}
	}
	ttl := s.cfg.TerminalTTL
	if terminal <= s.cfg.MaxTerminal && ttl == 0 {
		return
	}
	now := time.Now()
	keep := make([]string, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		evict := false
		if j.state.terminal() {
			if terminal > s.cfg.MaxTerminal {
				evict = true
			} else if ttl > 0 && now.Sub(j.finished) > ttl {
				evict = true
			}
		}
		if !evict {
			keep = append(keep, id)
			continue
		}
		terminal--
		delete(s.jobs, id)
		if j.key != "" && s.idem[j.key] == id {
			delete(s.idem, j.key)
		}
		s.mEvicted.Inc()
	}
	s.order = keep
}

// jobSecondsBounds spans sub-millisecond lint jobs to minute-long
// campaigns.
var jobSecondsBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60,
}

// jobSeconds returns the latency histogram of one job type.
func (s *Server) jobSeconds(typ string) *obs.Histogram {
	return s.reg.Histogram(
		fmt.Sprintf("s4e_serve_job_seconds{type=%q}", typ),
		"job execution latency by type", jobSecondsBounds)
}

// execute runs a job with panic isolation: a panicking
// analysis marks the job errored (carrying the stack) without taking
// down the worker or the process.
func (s *Server) execute(ctx context.Context, j *Job) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.mPanics.Inc()
			err = fmt.Errorf("job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	if s.execOverride != nil {
		return s.execOverride(ctx, j)
	}
	switch j.Type {
	case "run":
		return s.execRun(ctx, j)
	case "fault":
		return s.execFault(ctx, j)
	case "wcet":
		return s.execWCET(ctx, j)
	case "qta":
		return s.execQTA(ctx, j)
	case "lint":
		return s.execLint(ctx, j)
	case "subset":
		return s.execSubset(ctx, j)
	case "irt":
		return s.execIRT(ctx, j)
	}
	return nil, fmt.Errorf("unknown job type %q", j.Type)
}

// Shutdown drains the server: no new submissions are accepted, queued
// and in-flight jobs run to completion, then the workers exit. If ctx
// expires first, every queued job is cancelled, every running job's
// context is cancelled (they return promptly with partial state) and
// Shutdown reports ctx's error after the workers finish.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.ready.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		var recs []store.Record
		for _, j := range s.jobs {
			if j.state == StateQueued {
				recs = append(recs, s.cancelQueuedLocked(j))
			}
			if j.cancel != nil {
				j.cancelled = true
				j.cancel()
			}
		}
		s.mu.Unlock()
		for _, rec := range recs {
			s.journal(rec)
		}
		<-done // jobs are context-threaded, so this is prompt
		return ctx.Err()
	}
}
