package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/qta"
	"repro/internal/subset"
	"repro/internal/vp"
	"repro/internal/wcet"
	"repro/internal/workloads"
)

// binKey identifies one guest binary under one execution specialization:
// jobs agreeing on the key share the compiled translation pool, and
// campaign jobs additionally share per-budget golden runs.
type binKey struct {
	image   [32]byte // sha256 over org, entry, image bytes
	engine  emu.Engine
	profile string
}

// binEntry is the shared state of one binary: the compiled translation
// pool (published by fault.Prepare for the binary's first campaign and
// adopted by later run and fault jobs, whose fresh profiles match it by
// value) and the fault goldens keyed by instruction budget.
type binEntry struct {
	key     binKey
	mu      sync.Mutex
	pool    *emu.TBPool
	goldens map[uint64]*fault.Golden
}

// binCacheSize bounds the per-binary cache: the least recently used
// binary beyond it is dropped, and its next job pays one golden run. It
// sits well above the set of binaries a client keeps reusing (the
// benchmark's service mix reuses 20), so one-off binaries cannot grow
// the cache for the life of the process, nor push out that set.
const binCacheSize = 64

// bin returns the cache entry for a job's binary/engine/profile.
func (s *Server) bin(j *Job) *binEntry {
	h := sha256.New()
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], j.prog.Org)
	binary.LittleEndian.PutUint32(hdr[4:], j.prog.Entry)
	h.Write(hdr[:])
	h.Write(j.prog.Bytes)
	// Device stimuli are part of the guest's identity: golden runs and
	// cached results depend on what the sensor, DMA stream and UART feed
	// the program, so jobs differing only in stimuli must not share.
	binary.Write(h, binary.LittleEndian, int64(len(j.req.Sensor)))
	binary.Write(h, binary.LittleEndian, j.req.Sensor)
	binary.Write(h, binary.LittleEndian, int64(len(j.req.Stream)))
	binary.Write(h, binary.LittleEndian, j.req.Stream)
	h.Write([]byte(j.req.UARTIn))
	key := binKey{engine: j.engine, profile: j.profile.ProfileName}
	h.Sum(key.image[:0])
	s.binMu.Lock()
	defer s.binMu.Unlock()
	if el, ok := s.bins[key]; ok {
		s.binLRU.MoveToFront(el)
		return el.Value.(*binEntry)
	}
	e := &binEntry{key: key, goldens: map[uint64]*fault.Golden{}}
	s.bins[key] = s.binLRU.PushFront(e)
	if s.binLRU.Len() > binCacheSize {
		delete(s.bins, s.binLRU.Remove(s.binLRU.Back()).(*binEntry).key)
	}
	return e
}

// poolShare counts cross-job translation-pool cache traffic.
func (s *Server) poolShare(hit bool) {
	which := "miss"
	if hit {
		which = "hit"
	}
	s.reg.Counter(fmt.Sprintf("s4e_serve_pool_jobs_total{cache=%q}", which),
		"jobs by shared-translation-pool cache outcome").Inc()
}

// newPlatform builds a loaded platform for an executing job.
func (j *Job) newPlatform() (*vp.Platform, error) {
	p, err := vp.New(vp.Config{
		Profile: j.profile,
		Sensor:  j.req.Sensor,
		Stream:  j.req.Stream,
		UARTIn:  []byte(j.req.UARTIn),
	})
	if err != nil {
		return nil, err
	}
	p.Machine.Engine = j.engine
	if err := p.LoadProgram(j.prog); err != nil {
		return nil, err
	}
	return p, nil
}

// RunResult is the payload of a finished "run" job.
type RunResult struct {
	Reason string `json:"reason"`
	Code   uint32 `json:"code"`
	PC     uint32 `json:"pc"`
	Insts  uint64 `json:"insts"`
	Cycles uint64 `json:"cycles"`
	Output string `json:"output"`
}

// execRun executes the guest once on the virtual platform, warm-started
// from the binary's translation pool when its first campaign has
// published one. Run jobs only adopt: a pool is built from a golden run
// by fault.Prepare alone.
func (s *Server) execRun(ctx context.Context, j *Job) (any, error) {
	p, err := j.newPlatform()
	if err != nil {
		return nil, err
	}
	defer p.Release()
	e := s.bin(j)
	e.mu.Lock()
	pool := e.pool
	e.mu.Unlock()
	p.Machine.AttachTBPool(pool) // nil attach is a no-op detach
	s.poolShare(pool != nil && pool.Size() > 0)
	stop, err := p.RunContext(ctx, j.budget)
	return RunResult{
		Reason: stop.Reason.String(), Code: stop.Code, PC: stop.PC,
		Insts: p.Machine.Hart.Instret, Cycles: p.Machine.Hart.Cycle,
		Output: p.Output(),
	}, err
}

// FaultResult is the payload of a finished "fault" job. Details lists
// every mutant's outcome in plan order, so results are comparable
// bit-for-bit with the CLI campaign over the same plan.
type FaultResult struct {
	Total      int                       `json:"total"`
	ByOutcome  map[string]int            `json:"by_outcome"`
	ByModel    map[string]map[string]int `json:"by_model"`
	Details    []string                  `json:"details"`
	GoldenStop string                    `json:"golden_stop"`
	GoldenInst uint64                    `json:"golden_insts"`
	DurationMS float64                   `json:"duration_ms"`
	PoolShared bool                      `json:"pool_shared"`
	Errors     string                    `json:"errors,omitempty"`
}

// execFault runs a fault-injection campaign. The golden run and the
// shared translation pool are computed once per (binary, engine,
// profile, budget) and reused by every later campaign job over the
// same binary — the cross-job analogue of the per-campaign pool
// warm-start.
func (s *Server) execFault(ctx context.Context, j *Job) (any, error) {
	spec := j.req.Fault
	tg := &fault.Target{
		Program: j.prog, Budget: j.budget, Profile: j.profile, Engine: j.engine,
		Sensor: j.req.Sensor, Stream: j.req.Stream, UARTIn: []byte(j.req.UARTIn),
		LatencyBudget: spec.LatencyBudget,
	}

	e := s.bin(j)
	e.mu.Lock()
	golden := e.goldens[j.budget]
	pool := e.pool
	e.mu.Unlock()
	hit := golden != nil
	if !hit {
		g, p, err := fault.Prepare(tg)
		if err != nil {
			return nil, err
		}
		golden = g
		e.mu.Lock()
		e.goldens[j.budget] = g
		if e.pool == nil {
			e.pool = p
		}
		pool = e.pool
		e.mu.Unlock()
	}
	s.poolShare(hit)

	var plan fault.Plan
	if spec.ISRHandler != "" {
		// ISR-targeted campaign: faults concentrated on the handler's
		// code and the interrupt stack frame, plan-identical to
		// s4e-fault -isr with the same values.
		var err error
		plan, err = fault.NewISRPlan(j.prog, spec.ISRHandler, fault.ISRPlanConfig{
			Seed:         spec.Seed,
			GPRTransient: spec.GPRTransient,
			GPRPermanent: spec.GPRPermanent,
			MemPermanent: spec.MemPermanent,
			CodeBitflip:  spec.CodeBitflip,
			GoldenInsts:  golden.Insts,
			StackTop:     tg.StackTop(),
			StackBytes:   spec.StackBytes,
		})
		if err != nil {
			return nil, err
		}
	} else {
		org := j.prog.Org
		end := org + uint32(len(j.prog.Bytes))
		plan = fault.NewPlan(fault.PlanConfig{
			Seed:         spec.Seed,
			GPRTransient: spec.GPRTransient,
			GPRPermanent: spec.GPRPermanent,
			MemPermanent: spec.MemPermanent,
			CodeBitflip:  spec.CodeBitflip,
			GoldenInsts:  golden.Insts,
			CodeStart:    org, CodeEnd: end,
			DataStart: org, DataEnd: end,
		})
	}
	opts := fault.Options{Workers: 1, Golden: golden, Pool: pool, Metrics: s.reg}
	var res *fault.Results
	var err error
	if spec.Shards > 1 && len(plan.Faults) > 0 {
		// Sharded: contiguous mutant ranges run as independent sub-jobs
		// on the worker pool, merged bit-identically to the unsharded
		// campaign (see runShardedCampaign).
		res, err = s.runShardedCampaign(ctx, j, tg, plan, opts, shardCount(spec.Shards, len(plan.Faults)))
	} else {
		opts.OnProgress = func(done, total uint64) { s.noteProgress(j, done, total) }
		res, err = fault.CampaignContext(ctx, tg, plan, opts)
	}
	if res == nil {
		return nil, err
	}
	out := FaultResult{
		Total:      res.Total,
		ByOutcome:  map[string]int{},
		ByModel:    map[string]map[string]int{},
		Details:    make([]string, len(res.Details)),
		GoldenStop: golden.Stop.String(),
		GoldenInst: golden.Insts,
		DurationMS: float64(res.Duration) / float64(time.Millisecond),
		PoolShared: pool != nil && pool.Size() > 0,
	}
	for o, n := range res.ByOutcome {
		out.ByOutcome[o.String()] = n
	}
	for m, row := range res.ByModel {
		mr := map[string]int{}
		for o, n := range row {
			mr[o.String()] = n
		}
		out.ByModel[m.String()] = mr
	}
	for i, o := range res.Details {
		out.Details[i] = o.String()
	}
	if err != nil {
		out.Errors = err.Error()
		if ctx.Err() != nil {
			// Cancellation/deadline: partial results plus the ctx error.
			return out, ctx.Err()
		}
		// Errored mutants: the campaign itself completed; the job is
		// done with the error recorded in the payload, mirroring the
		// CLI's keep-partial-results behaviour.
	}
	return out, nil
}

// WCETResult is the payload of a finished "wcet" job: the annotated CFG
// artifact (blocks, edges, bounds, the WCET bound) the QTA flow
// consumes.
type WCETResult struct {
	WCET      uint64          `json:"wcet"`
	Blocks    int             `json:"blocks"`
	Edges     int             `json:"edges"`
	Annotated *wcet.Annotated `json:"annotated"`
}

// execWCET runs the static WCET analysis.
func (s *Server) execWCET(ctx context.Context, j *Job) (any, error) {
	a, err := flow.Analyze(ctx, j.prog, j.profile, j.req.Bounds, j.infer)
	if err != nil {
		return nil, err
	}
	an := a.Annotated
	return WCETResult{WCET: an.WCET, Blocks: len(an.Blocks), Edges: len(an.Edges), Annotated: an}, nil
}

// QTAResult is the payload of a finished "qta" job: the three-way
// static/observed/dynamic timing comparison.
type QTAResult struct {
	StaticWCET  uint64 `json:"static_wcet"`
	QTATime     uint64 `json:"qta_time"`
	Dynamic     uint64 `json:"dynamic"`
	Insts       uint64 `json:"insts"`
	BlocksSeen  int    `json:"blocks_seen"`
	BlocksTotal int    `json:"blocks_total"`
	Missing     uint64 `json:"missing"`
	Traps       uint64 `json:"traps"`
	Sound       bool   `json:"sound"`
	StopReason  string `json:"stop_reason"`
}

// execQTA runs static analysis plus the timing-annotated co-simulation.
func (s *Server) execQTA(ctx context.Context, j *Job) (any, error) {
	a, err := flow.Analyze(ctx, j.prog, j.profile, j.req.Bounds, j.infer)
	if err != nil {
		return nil, err
	}
	p, err := j.newPlatform()
	if err != nil {
		return nil, err
	}
	defer p.Release()
	q, stop, err := qta.CoSim(ctx, a.Annotated, p, j.budget)
	if err != nil {
		return nil, err
	}
	r := q.NewResult(j.ID, p.Machine.Hart.Cycle, p.Machine.Hart.Instret)
	return QTAResult{
		StaticWCET: r.StaticWCET, QTATime: r.QTATime, Dynamic: r.Dynamic,
		Insts: r.Insts, BlocksSeen: r.BlocksSeen, BlocksTotal: r.BlocksTotal,
		Missing: r.Missing, Traps: r.Traps, Sound: r.Sound(),
		StopReason: stop.Reason.String(),
	}, nil
}

// LintFinding is one linter diagnostic in a "lint" job's payload.
type LintFinding struct {
	Check    string `json:"check"`
	Severity string `json:"severity"`
	Addr     uint32 `json:"addr"`
	Line     int    `json:"line,omitempty"`
	Msg      string `json:"msg"`
}

// LintResult is the payload of a finished "lint" job.
type LintResult struct {
	Findings []LintFinding `json:"findings"`
	Definite int           `json:"definite"`
	Possible int           `json:"possible"`
	Info     int           `json:"info"`
}

// SubsetResult is the payload of a finished "subset" job: the
// whole-binary ISA-subset and resource-usage report.
type SubsetResult struct {
	Report *subset.Report `json:"report"`
}

// execSubset runs the interprocedural ISA-subset analyzer over the
// job's program.
func (s *Server) execSubset(ctx context.Context, j *Job) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	symbols := map[uint32]string{}
	for name, addr := range j.prog.Symbols {
		symbols[addr] = name
	}
	rep, err := subset.Analyze(j.prog.Bytes, j.prog.Org, j.prog.Entry, symbols)
	if err != nil {
		return nil, err
	}
	return SubsetResult{Report: rep}, nil
}

// execIRT runs the interrupt-response-time qualification: the static
// IRT bound cross-checked against adversarially timed interrupts
// (flow.RunIRT), the service twin of s4e-qta -irq. The payload is the
// flow.IRTResult: static bound decomposition, measured campaign, and
// the soundness verdict.
func (s *Server) execIRT(ctx context.Context, j *Job) (any, error) {
	spec := j.req.IRQ
	var w workloads.Workload
	if spec.Workload != "" {
		ww, ok := workloads.ByName(spec.Workload)
		if !ok || ww.Handler == "" {
			return nil, fmt.Errorf("unknown interrupt workload %q", spec.Workload)
		}
		w = ww
	} else {
		w = workloads.Workload{
			Name:       "job",
			Source:     j.req.Source,
			Budget:     j.budget,
			Expect:     spec.Expect,
			Handler:    spec.Handler,
			LoopBounds: j.req.Bounds,
			Sensor:     j.req.Sensor,
			Stream:     j.req.Stream,
			UARTIn:     []byte(j.req.UARTIn),
		}
	}
	return flow.RunIRT(ctx, w, j.profile, flow.IRTConfig{
		Engine:  j.engine,
		Samples: spec.Samples,
		Seed:    spec.Seed,
	})
}

// execLint runs the guest-binary linter under the platform
// configuration.
func (s *Server) execLint(ctx context.Context, j *Job) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	findings, err := flow.LintProgram(j.prog, j.req.Bounds)
	if err != nil {
		return nil, err
	}
	out := LintResult{Findings: []LintFinding{}}
	for _, f := range findings {
		out.Findings = append(out.Findings, LintFinding{
			Check: f.Check, Severity: f.Severity.String(),
			Addr: f.Addr, Line: f.Line, Msg: f.Msg,
		})
		switch f.Severity.String() {
		case "definite":
			out.Definite++
		case "possible":
			out.Possible++
		default:
			out.Info++
		}
	}
	return out, nil
}
