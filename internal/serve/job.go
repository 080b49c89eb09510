package serve

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/vp"
)

// Request is the JSON body of POST /v1/jobs: one analysis job over one
// guest binary. Exactly one of Source (assembly text, assembled with
// the platform prelude like every CLI tool) or ELF (a base64-encoded
// ELF32 executable, the JSON encoding of []byte) must be given.
type Request struct {
	// Type selects the analysis: "run", "fault", "wcet", "qta", "lint",
	// "subset".
	Type string `json:"type"`

	// Source is RV32 assembly source for the virtual platform.
	Source string `json:"source,omitempty"`
	// ELF is an uploaded ELF32 guest binary (base64 in JSON).
	ELF []byte `json:"elf,omitempty"`

	// Budget is the instruction budget for executing job types (run,
	// fault, qta). 0 picks the server default.
	Budget uint64 `json:"budget,omitempty"`
	// Profile names the timing profile (default "edge-small").
	Profile string `json:"profile,omitempty"`
	// Engine selects the execution engine: "superblock" (default) or
	// "switch"; "threaded" is accepted as an alias of "superblock" (see
	// emu.EngineNames).
	Engine string `json:"engine,omitempty"`
	// Bounds are explicit loop bounds (label=N) for wcet/qta/lint jobs.
	Bounds map[string]int `json:"bounds,omitempty"`
	// InferBounds enables automatic loop-bound inference for wcet/qta
	// jobs; nil means true.
	InferBounds *bool `json:"infer_bounds,omitempty"`
	// TimeoutMS caps the job's wall-clock execution; 0 picks the server
	// default. The deadline is enforced through the job context, so an
	// expired job frees its worker promptly.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// IdempotencyKey deduplicates submissions: a submit whose key
	// matches a previously accepted job (including jobs replayed from
	// the journal after a restart) returns that job's status instead of
	// enqueuing a duplicate execution. The HTTP layer also accepts the
	// key via the Idempotency-Key request header. Keys live as long as
	// the job they name is retained in memory.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// Sensor and Stream preload the sensor device and the DMA stream
	// engine; UARTIn preloads the UART receive queue. Interrupt-driven
	// guests (run, fault, qta jobs) consume these as their stimuli.
	Sensor []int16 `json:"sensor,omitempty"`
	Stream []int16 `json:"stream,omitempty"`
	UARTIn string  `json:"uart_in,omitempty"`

	// Fault parametrizes fault-campaign jobs.
	Fault *FaultSpec `json:"fault,omitempty"`

	// IRQ parametrizes "irt" (interrupt-response-time) jobs.
	IRQ *IRQSpec `json:"irq,omitempty"`
}

// FaultSpec mirrors the s4e-fault plan flags, so a service campaign is
// plan-identical (and therefore classification-identical) to the CLI
// run with the same values.
type FaultSpec struct {
	Seed         int64 `json:"seed"`
	GPRTransient int   `json:"gpr"`
	GPRPermanent int   `json:"gprperm"`
	MemPermanent int   `json:"mem"`
	CodeBitflip  int   `json:"code"`
	// Shards splits the campaign's mutant plan into this many contiguous
	// index ranges executed as independent sub-jobs on the server's
	// worker pool, then deterministically merged (bit-identical to the
	// unsharded campaign — see fault.MergeShards). <=1 runs unsharded.
	// Each shard runs one mutant at a time, so shards on the server's
	// worker pool are a campaign's only parallelism.
	Shards int `json:"shards,omitempty"`
	// ISRHandler, when set, names the interrupt-handler entry symbol and
	// switches the campaign to the ISR-targeted plan (fault.NewISRPlan):
	// code bit flips land only in the handler's reachable instructions
	// and memory faults only in the ISR stack window below the initial
	// stack pointer.
	ISRHandler string `json:"isr_handler,omitempty"`
	// StackBytes sizes the ISR stack fault window (default 64).
	StackBytes uint32 `json:"stack_bytes,omitempty"`
	// LatencyBudget, when non-zero, classifies otherwise-benign mutants
	// whose worst observed interrupt-service latency exceeds this many
	// cycles as latency violations (fault.LatencyViol).
	LatencyBudget uint64 `json:"latency_budget,omitempty"`
}

// IRQSpec parametrizes "irt" jobs: the static interrupt-response-time
// bound cross-checked against adversarially timed interrupt injection
// (flow.RunIRT), mirroring s4e-qta -irq.
type IRQSpec struct {
	// Workload names a built-in interrupt demonstrator (pid_timer,
	// dma_stream, uart_cmd). It brings its own source, stimuli, budget
	// and expected exit code, so Source and ELF must be empty.
	Workload string `json:"workload,omitempty"`
	// Handler names the ISR entry symbol of a custom Source (required
	// when Workload is empty; ELF uploads are not supported — the IRT
	// analyzer wants the assembled symbol table and loop bounds).
	Handler string `json:"handler,omitempty"`
	// Expect is the exit code the custom source's golden (interrupt-free
	// trigger at the horizon) run must produce.
	Expect uint32 `json:"expect,omitempty"`
	// Samples is the number of adversarial trigger points (default 32).
	Samples int `json:"samples,omitempty"`
	// Seed jitters the trigger points inside their strata.
	Seed uint64 `json:"seed,omitempty"`
}

// State is the lifecycle phase of a job.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateErrored   State = "errored"
	StateCancelled State = "cancelled"
)

// terminal reports whether the state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateErrored || s == StateCancelled
}

// Job is one accepted analysis job. Mutable fields are guarded by the
// server mutex; the resolved program and validated parameters are
// immutable after submission.
type Job struct {
	ID   string
	Type string

	req     Request
	prog    *asm.Program
	profile *timing.Profile
	engine  emu.Engine
	budget  uint64
	timeout time.Duration
	infer   bool // wcet/qta: infer missing loop bounds (unset in the request means true)

	key      string // idempotency key, "" when none
	replayed bool   // restored from the journal (terminal stub)

	state     State
	attempts  int
	err       string
	result    any
	cancel    func() // non-nil while running
	cancelled bool   // user-requested (vs deadline)

	// shardRun marks an internal campaign-shard work item on the pending
	// list; such items never enter the jobs map or the journal.
	shardRun func()

	// lifecycle event stream (see events.go); guarded by the server
	// mutex like the rest of the mutable state.
	events     []Event
	progressEv *Event
	progress   *Progress
	eventSeq   int
	notify     chan struct{}

	submitted time.Time
	started   time.Time
	finished  time.Time
}

// Status is the JSON shape of a job's lifecycle, returned by the submit
// and status endpoints.
type Status struct {
	ID        string     `json:"id"`
	Type      string     `json:"type"`
	State     State      `json:"state"`
	Error     string     `json:"error,omitempty"`
	Attempts  int        `json:"attempts,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// DurationMS is the execution time of a finished job.
	DurationMS float64 `json:"duration_ms,omitempty"`
	// IdempotencyKey echoes the submission's deduplication key.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Progress is the live campaign progress of a running fault job
	// (mutants done/total, per-shard when sharded).
	Progress *Progress `json:"progress,omitempty"`
}

// status snapshots the job under the server mutex.
func (j *Job) status() Status {
	st := Status{
		ID: j.ID, Type: j.Type, State: j.state, Error: j.err,
		Attempts: j.attempts, Submitted: j.submitted,
		IdempotencyKey: j.key, Progress: j.progress.clone(),
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
		if !j.started.IsZero() {
			st.DurationMS = float64(j.finished.Sub(j.started)) / float64(time.Millisecond)
		}
	}
	return st
}

// newID returns a random 16-hex-digit job identifier.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to a time-derived ID; uniqueness is best-effort then.
		return fmt.Sprintf("t%015x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// jobTypes is the set of accepted job types.
var jobTypes = map[string]bool{
	"run": true, "fault": true, "wcet": true, "qta": true, "lint": true,
	"subset": true, "irt": true,
}

// resolveProgram turns the request's Source or ELF into the flat
// program image every analysis layer consumes.
func resolveProgram(req *Request) (*asm.Program, error) {
	switch {
	case req.Source != "" && len(req.ELF) > 0:
		return nil, fmt.Errorf("give either source or elf, not both")
	case req.Source != "":
		return asm.AssembleAt(vp.Prelude+req.Source, vp.RAMBase)
	case len(req.ELF) > 0:
		return vp.ProgramFromELF(req.ELF)
	}
	return nil, fmt.Errorf("job needs source or elf")
}
