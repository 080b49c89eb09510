// Package fault implements the QEMU-based fault effect analysis of the
// ecosystem: automatic generation of bit-flip faults (transient register
// flips, permanent memory and instruction-word corruption), mutant
// execution on the virtual platform, and classification of each outcome
// against a golden run — the qualification flow safety standards like
// ISO 26262 require for embedded software.
package fault

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/timing"
	"repro/internal/vp"
)

// Model is the fault model of one injection.
type Model uint8

const (
	// GPRTransient flips one bit of one register once, after a trigger
	// number of retired instructions (an SEU in the register file).
	GPRTransient Model = iota
	// GPRPermanent forces one bit of one register to a stuck value for
	// the whole run (a defective register-file cell). Simulated by
	// re-applying the stuck value before every instruction.
	GPRPermanent
	// MemPermanent flips one bit in RAM before execution (a stuck cell
	// in the data section).
	MemPermanent
	// CodeBitflip flips one bit of one instruction word before
	// execution (a corrupted fetch path / flash cell).
	CodeBitflip
)

func (m Model) String() string {
	switch m {
	case GPRTransient:
		return "gpr-transient"
	case GPRPermanent:
		return "gpr-permanent"
	case MemPermanent:
		return "mem-permanent"
	case CodeBitflip:
		return "code-bitflip"
	}
	return "model?"
}

// Fault is one concrete injection.
type Fault struct {
	Model   Model
	Reg     isa.Reg // GPRTransient / GPRPermanent
	Bit     uint8   // bit index (register/word) or bit-in-byte (memory)
	Stuck1  bool    // GPRPermanent: stuck-at-1 instead of stuck-at-0
	Addr    uint32  // MemPermanent / CodeBitflip target address
	Trigger uint64  // GPRTransient: retired instructions before the flip
}

func (f Fault) String() string {
	switch f.Model {
	case GPRTransient:
		return fmt.Sprintf("%v %s bit %d @ inst %d", f.Model, f.Reg, f.Bit, f.Trigger)
	case GPRPermanent:
		v := 0
		if f.Stuck1 {
			v = 1
		}
		return fmt.Sprintf("%v %s bit %d stuck-at-%d", f.Model, f.Reg, f.Bit, v)
	default:
		return fmt.Sprintf("%v 0x%08x bit %d", f.Model, f.Addr, f.Bit)
	}
}

// Outcome classifies one mutant run.
type Outcome uint8

const (
	// Masked: the run finished normally with the golden result.
	Masked Outcome = iota
	// SDC: silent data corruption — finished normally, wrong result.
	SDC
	// Trapped: the fault surfaced as a trap (illegal instruction,
	// access fault, ...) or unexpected ebreak.
	Trapped
	// Hung: the instruction budget expired (livelock/runaway).
	Hung
	// Errored: the harness could not run the mutant (injection address
	// outside RAM, platform construction failure). Not a guest
	// classification — an errored slot says nothing about the fault's
	// architectural effect.
	Errored
	// LatencyViol: the run finished with a result that would classify
	// Masked or SDC, but an interrupt-service latency exceeded the
	// target's budget — the failure mode a purely value-based
	// classification misses on reactive firmware. Appended after Errored
	// so existing serialized outcomes keep their values.
	LatencyViol
)

// numOutcomes sizes per-outcome arrays; keep in step with the constants.
const numOutcomes = 6

func (o Outcome) String() string {
	switch o {
	case Masked:
		return "masked"
	case SDC:
		return "sdc"
	case Trapped:
		return "trapped"
	case Hung:
		return "hung"
	case Errored:
		return "errored"
	case LatencyViol:
		return "latency-viol"
	}
	return "outcome?"
}

// Golden is the reference behaviour of the fault-free program.
type Golden struct {
	Stop   emu.StopInfo
	Output string
	Insts  uint64 // retired instructions of the fault-free run
}

// Target describes the program under campaign.
type Target struct {
	Program *asm.Program
	Budget  uint64
	Profile *timing.Profile
	Sensor  []int16
	Stream  []int16 // DMA sensor stream (interrupt demonstrators)
	UARTIn  []byte  // pre-fed UART receive bytes

	// LatencyBudget, when non-zero, bounds the cycles any interrupt may
	// stay pending before its trap is taken. A mutant whose run would
	// classify Masked or SDC but exceeded the budget is reclassified
	// LatencyViol — the silent failure mode of reactive firmware, where
	// a fault perturbs timing without corrupting values. The budget is
	// checked against the fault-free behaviour by the caller (a golden
	// run violating it makes every mutant a violation).
	LatencyBudget uint64

	// Engine selects the execution engine for the golden run and every
	// mutant (the zero value is the compiled superblock engine, mirroring
	// emu.Machine.Engine), so campaigns can be run and compared on both
	// engines.
	Engine emu.Engine

	// RAMSize bounds the platform memory; 0 picks a minimal size
	// covering the image plus stack headroom, which keeps per-worker
	// platforms and snapshots cheap.
	RAMSize uint32

	// NoDirtyPages disables page-granular dirty tracking on every
	// campaign platform (emu.Machine.DisableDirtyPages), restoring the
	// single-watermark rewind and validity behaviour — the baseline arm
	// of the restore-cost ablation (bench E12) and the pages-on/off
	// differential tests.
	NoDirtyPages bool
}

func (t *Target) ramSize() uint32 {
	if t.RAMSize != 0 {
		return t.RAMSize
	}
	need := uint32(len(t.Program.Bytes)) + 64<<10
	const minRAM = 1 << 20
	if need < minRAM {
		return minRAM
	}
	return need
}

// newPlatform builds a fresh loaded platform for one run.
func (t *Target) newPlatform() (*vp.Platform, error) {
	p, err := vp.New(vp.Config{
		Profile: t.Profile,
		Sensor:  t.Sensor,
		Stream:  t.Stream,
		UARTIn:  t.UARTIn,
		RAMSize: t.ramSize(),
	})
	if err != nil {
		return nil, err
	}
	p.Machine.Engine = t.Engine
	// Before the load: the dirty-page bitmap is sized when the machine
	// first touches RAM, which the program load does.
	p.Machine.DisableDirtyPages = t.NoDirtyPages
	if err := p.LoadProgram(t.Program); err != nil {
		return nil, err
	}
	return p, nil
}

// injector owns one reusable platform plus its post-load snapshot; each
// campaign worker holds one, rewinding between mutants instead of
// rebuilding the platform (the throughput mechanism of the campaign
// runner). The rewind is RestoreReuse — zero RAM and re-copy the program
// image rather than a full snapshot-RAM copy — and it keeps the
// machine's translation cache across mutants whenever the previous run
// left the code bytes untouched, so the block working set is translated
// once per worker, not once per mutant. With a shared translation pool
// attached (the campaign default), even that per-worker warmup — and
// every re-warm after a code-mutating fault flushed the private cache —
// is mostly eliminated: blocks are adopted from the golden run's
// compiled pool, and only mutated ranges take private overlay compiles.
type injector struct {
	t    *Target
	p    *vp.Platform
	base *vp.Snapshot

	// lat observes interrupt-service latency when the target sets a
	// LatencyBudget; nil otherwise (no hook overhead).
	lat *latencyWatcher

	// dirtyCode marks that the previous mutant corrupted bytes that may
	// back cached translations (a fault flip, or a store into translated
	// code), forcing a cache flush on the next rewind.
	dirtyCode bool
}

// newInjector builds a worker injector; pool, when non-nil, is the
// golden run's shared translation pool to warm-start from (attached
// after the program load, so the machine's image matches the pool's).
func newInjector(t *Target, pool *emu.TBPool) (*injector, error) {
	p, err := t.newPlatform()
	if err != nil {
		return nil, err
	}
	p.Machine.AttachTBPool(pool)
	inj := &injector{t: t, p: p, base: p.Snapshot()}
	if t.LatencyBudget > 0 {
		inj.lat = &latencyWatcher{p: p}
		if err := p.Machine.Hooks.Register(inj.lat); err != nil {
			return nil, err
		}
	}
	return inj, nil
}

// reset rewinds the injector's platform for the next mutant.
func (inj *injector) reset() {
	inj.p.RestoreReuse(inj.base, inj.t.Program)
	if inj.lat != nil {
		inj.lat.reset()
	}
	if inj.dirtyCode {
		inj.p.Machine.InvalidateTBs()
		inj.dirtyCode = false
	}
}

// finish folds the observed interrupt latency into a mutant's
// value-based classification.
func (inj *injector) finish(out Outcome) Outcome {
	if inj.lat == nil {
		return out
	}
	return latencyOutcome(out, inj.lat.Worst(), inj.t.LatencyBudget)
}

// RunGolden executes the fault-free program and records its behaviour.
func RunGolden(t *Target) (*Golden, error) {
	g, _, err := runGolden(t)
	return g, err
}

// runGolden is RunGolden keeping the platform alive, so the campaign can
// freeze the golden run's compiled translation state into a shared pool.
func runGolden(t *Target) (*Golden, *vp.Platform, error) {
	p, err := t.newPlatform()
	if err != nil {
		return nil, nil, err
	}
	stop := p.Run(t.Budget)
	if stop.Reason != emu.StopExit && stop.Reason != emu.StopEbreak {
		return nil, nil, fmt.Errorf("fault: golden run ended with %v", stop)
	}
	return &Golden{Stop: stop, Output: p.Output(), Insts: p.Machine.Hart.Instret}, p, nil
}

// Inject runs one mutant and classifies it against the golden behaviour.
func Inject(t *Target, g *Golden, f Fault) (Outcome, error) {
	inj, err := newInjector(t, nil)
	if err != nil {
		return 0, err
	}
	return inj.run(g, f)
}

// run executes one mutant on the injector's recycled platform.
func (inj *injector) run(g *Golden, f Fault) (Outcome, error) {
	t := inj.t
	p := inj.p
	inj.reset()
	cw := p.Machine.CodeWrites()
	defer func() {
		// Translations made after a write into translated code (the flip
		// below, or a wild store), or overlapping any pages the run wrote
		// to RAM (a wild jump into freshly written data), do not match
		// the pristine image the next reset restores; flush them then.
		// The page-granular check means scattered data stores bracketing
		// the code region no longer force a flush every mutant.
		if p.Machine.CodeWrites() != cw || p.Machine.CodePagesDirty() {
			inj.dirtyCode = true
		}
	}()
	switch f.Model {
	case MemPermanent, CodeBitflip:
		ram := p.RAM.Bytes()
		off := f.Addr - vp.RAMBase
		if int(off) >= len(ram) {
			return 0, fmt.Errorf("fault: address 0x%08x outside RAM", f.Addr)
		}
		byteAddr := f.Addr + uint32(f.Bit/8)
		ram[off+uint32(f.Bit/8)] ^= 1 << (f.Bit % 8)
		// The flip bypasses the store path, so fold it into the
		// watermark by hand for the next watermark-based restore.
		p.Machine.NoteRAMWrite(byteAddr, 1)
		// Drop only the translations overlapping the flipped byte; this
		// also bumps CodeWrites, so the next reset flushes any blocks
		// translated from the corrupted image.
		p.Machine.InvalidateRange(byteAddr, byteAddr+1)
	}

	if f.Model == GPRPermanent {
		out, err := injectStuck(t, g, f, p)
		if err != nil {
			return out, err
		}
		return inj.finish(out), nil
	}

	var stop emu.StopInfo
	if f.Model == GPRTransient {
		stop = p.Run(f.Trigger)
		if stop.Reason == emu.StopBudget {
			p.Machine.Hart.X[f.Reg] ^= 1 << f.Bit
			if f.Reg == 0 {
				p.Machine.Hart.X[0] = 0 // x0 is hardwired; flip is absorbed
			}
			remaining := uint64(1)
			if t.Budget > f.Trigger {
				remaining = t.Budget - f.Trigger
			}
			stop = p.Run(remaining)
		}
		// Otherwise the program finished before the trigger: the flip
		// never landed and the run is the golden one.
	} else {
		stop = p.Run(t.Budget)
	}

	switch stop.Reason {
	case emu.StopBudget:
		return Hung, nil
	case emu.StopTrap:
		return Trapped, nil
	case emu.StopExit, emu.StopEbreak:
		if stop.Reason == g.Stop.Reason && stop.Code == g.Stop.Code && p.Output() == g.Output {
			return inj.finish(Masked), nil
		}
		if stop.Reason != g.Stop.Reason {
			return Trapped, nil
		}
		return inj.finish(SDC), nil
	}
	return Trapped, nil
}

// injectStuck simulates a stuck register-file bit by re-applying the
// stuck value before every instruction (single-step execution, so the
// classification is exact at the cost of translation-cache speed).
func injectStuck(t *Target, g *Golden, f Fault, p *vp.Platform) (Outcome, error) {
	h := &p.Machine.Hart
	apply := func() {
		if f.Reg == 0 {
			return
		}
		if f.Stuck1 {
			h.X[f.Reg] |= 1 << f.Bit
		} else {
			h.X[f.Reg] &^= 1 << f.Bit
		}
	}
	var stop *emu.StopInfo
	for steps := uint64(0); steps < t.Budget; steps++ {
		apply()
		if stop = p.Machine.Step(); stop != nil {
			break
		}
	}
	if stop == nil {
		return Hung, nil
	}
	switch stop.Reason {
	case emu.StopTrap:
		return Trapped, nil
	case emu.StopExit, emu.StopEbreak:
		if stop.Reason == g.Stop.Reason && stop.Code == g.Stop.Code && p.Output() == g.Output {
			return Masked, nil
		}
		if stop.Reason != g.Stop.Reason {
			return Trapped, nil
		}
		return SDC, nil
	}
	return Trapped, nil
}

// goldenCodeClean reports whether the golden run left its translated
// code bytes bit-identical to the post-load image: no store ever hit
// translated code, and no translation overlaps a page the run wrote.
// Only then do the golden platform's compiled blocks match the pristine
// image every campaign worker boots from.
func goldenCodeClean(p *vp.Platform) bool {
	return p.Machine.CodeWrites() == 0 && !p.Machine.CodePagesDirty()
}

// Plan is a generated fault list.
type Plan struct {
	Faults []Fault
}

// PlanConfig controls fault-list generation.
type PlanConfig struct {
	Seed int64
	// Counts per model.
	GPRTransient, GPRPermanent, MemPermanent, CodeBitflip int
	// GoldenInsts bounds transient triggers (retired instructions of
	// the golden run).
	GoldenInsts uint64
	// CodeRange restricts code bit flips to [Start, End) — typically the
	// program's executed text, a coverage-guided choice.
	CodeStart, CodeEnd uint32
	// DataRange restricts memory faults.
	DataStart, DataEnd uint32
	// UsedRegs restricts register faults to registers the program
	// actually touches (from the coverage analysis); empty means all.
	UsedRegs []isa.Reg
}

// NewPlan generates a deterministic fault list.
func NewPlan(cfg PlanConfig) Plan {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var faults []Fault
	regs := cfg.UsedRegs
	if len(regs) == 0 {
		for r := isa.Reg(1); r < 32; r++ {
			regs = append(regs, r)
		}
	}
	for i := 0; i < cfg.GPRTransient; i++ {
		trig := uint64(1)
		if cfg.GoldenInsts > 1 {
			trig = 1 + uint64(rng.Int63n(int64(cfg.GoldenInsts)))
		}
		faults = append(faults, Fault{
			Model:   GPRTransient,
			Reg:     regs[rng.Intn(len(regs))],
			Bit:     uint8(rng.Intn(32)),
			Trigger: trig,
		})
	}
	for i := 0; i < cfg.GPRPermanent; i++ {
		faults = append(faults, Fault{
			Model:  GPRPermanent,
			Reg:    regs[rng.Intn(len(regs))],
			Bit:    uint8(rng.Intn(32)),
			Stuck1: rng.Intn(2) == 1,
		})
	}
	for i := 0; i < cfg.MemPermanent; i++ {
		span := int64(cfg.DataEnd - cfg.DataStart)
		if span <= 0 {
			break
		}
		faults = append(faults, Fault{
			Model: MemPermanent,
			Addr:  cfg.DataStart + uint32(rng.Int63n(span))&^3,
			Bit:   uint8(rng.Intn(32)),
		})
	}
	for i := 0; i < cfg.CodeBitflip; i++ {
		span := int64(cfg.CodeEnd-cfg.CodeStart) / 4
		if span <= 0 {
			break
		}
		faults = append(faults, Fault{
			Model: CodeBitflip,
			Addr:  cfg.CodeStart + uint32(rng.Int63n(span))*4,
			Bit:   uint8(rng.Intn(32)),
		})
	}
	return Plan{Faults: faults}
}

// Range returns the sub-plan covering Faults[lo:hi) — one contiguous
// shard of a campaign. Mutants are classified independently of each
// other (each run boots from the same golden snapshot), so executing a
// plan as K range shards and merging with MergeShards is bit-identical
// to one unsharded campaign over the full plan. Out-of-range bounds are
// clamped.
func (p Plan) Range(lo, hi int) Plan {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.Faults) {
		hi = len(p.Faults)
	}
	if lo >= hi {
		return Plan{}
	}
	return Plan{Faults: p.Faults[lo:hi]}
}

// MergeShards reassembles per-range campaign results into one Results
// covering the full plan: parts[i] must be the result of running
// plan.Range(offsets[i], offsets[i]+parts[i].Total), and the ranges
// must tile the plan exactly (contiguous, in order, no gaps). Details
// are copied back into plan positions and the classification tables are
// recomputed from them, so the merged result is bit-identical to the
// unsharded campaign's. Duration is the maximum shard duration (shards
// run in parallel; the sum would overstate wall clock).
func MergeShards(plan Plan, offsets []int, parts []*Results) (*Results, error) {
	if len(offsets) != len(parts) {
		return nil, fmt.Errorf("fault: %d offsets for %d shard results", len(offsets), len(parts))
	}
	res := &Results{
		Total:     len(plan.Faults),
		ByOutcome: make(map[Outcome]int),
		ByModel:   make(map[Model]map[Outcome]int),
		Details:   make([]Outcome, len(plan.Faults)),
	}
	next := 0
	for i, part := range parts {
		if part == nil {
			return nil, fmt.Errorf("fault: shard %d result missing", i)
		}
		if offsets[i] != next {
			return nil, fmt.Errorf("fault: shard %d starts at %d, want %d", i, offsets[i], next)
		}
		if offsets[i]+part.Total > len(plan.Faults) {
			return nil, fmt.Errorf("fault: shard %d range [%d,%d) exceeds plan size %d",
				i, offsets[i], offsets[i]+part.Total, len(plan.Faults))
		}
		copy(res.Details[offsets[i]:], part.Details)
		next = offsets[i] + part.Total
		if part.Duration > res.Duration {
			res.Duration = part.Duration
		}
	}
	if next != len(plan.Faults) {
		return nil, fmt.Errorf("fault: shards cover %d of %d mutants", next, len(plan.Faults))
	}
	for i, out := range res.Details {
		res.ByOutcome[out]++
		m := plan.Faults[i].Model
		if res.ByModel[m] == nil {
			res.ByModel[m] = make(map[Outcome]int)
		}
		res.ByModel[m][out]++
	}
	return res, nil
}

// Results aggregates a campaign.
type Results struct {
	Total     int
	ByOutcome map[Outcome]int
	ByModel   map[Model]map[Outcome]int
	// Details pairs each fault with its outcome, in plan order.
	Details []Outcome
	// Duration is the wall-clock time of the mutant runs (golden run
	// excluded).
	Duration time.Duration
}

// Errored reports how many mutants the harness failed to run.
func (r *Results) Errored() int { return r.ByOutcome[Errored] }

// Options configures a campaign run beyond the plan itself. The zero
// value means one worker and no observability.
type Options struct {
	// Workers is the number of parallel mutant runners (<=0 means 1).
	Workers int
	// NoSharedPool disables the shared translation pool: every worker
	// cold-compiles its own private translation cache, the pre-pool
	// behaviour kept for ablation and differential testing. By default
	// (false) the golden run's compiled blocks are frozen into an
	// emu.TBPool that all workers attach, so the code image is compiled
	// once per campaign instead of once per worker (and re-warms after
	// code-mutant flushes come from the pool, not the compiler).
	NoSharedPool bool
	// Metrics, when non-nil, receives campaign counters
	// (s4e_fault_mutants_total{outcome=...}, s4e_fault_done_total,
	// throughput gauges) plus the accumulated engine/bus stats of every
	// worker platform.
	Metrics *obs.Registry
	// Trace, when non-nil, receives campaign-start/mutant/campaign-end
	// events. Per-mutant events serialize on the trace mutex, so only
	// enable it when per-mutant attribution is worth the contention.
	Trace *obs.Trace
	// Progress, when non-nil, receives a live one-line status every
	// ProgressEvery (default 1s) plus a final line at completion.
	Progress      io.Writer
	ProgressEvery time.Duration
	// OnProgress, when non-nil, is called with (mutants done, total) on
	// the same cadence as Progress — every ProgressEvery while the
	// campaign runs, plus once at completion with done==total (unless
	// cancelled). It is invoked from the campaign's progress goroutine;
	// implementations must be safe for that and should return quickly.
	// This is the hook a serving layer uses to stream live campaign
	// progress without parsing the human-readable Progress lines.
	OnProgress func(done, total uint64)
	// Golden, when non-nil, is a previously computed golden reference
	// for this exact target (same program, budget, profile, sensor and
	// engine); the campaign skips its own golden run and uses it
	// directly. Pool, when additionally non-nil, is the matching shared
	// translation pool (from Prepare) the workers warm-start from. A
	// long-running service uses the pair to run the golden once per
	// binary and share both across many campaign jobs.
	Golden *Golden
	Pool   *emu.TBPool
}

// Prepare runs the golden reference once and freezes its compiled
// translation state into a shareable pool, so many campaigns over the
// same target can reuse both via Options.Golden/Options.Pool. The pool
// is nil when the golden run dirtied its own code (the same
// goldenCodeClean gate CampaignOpt applies); the Golden is still valid
// then, campaigns just fall back to private translation caches.
func Prepare(t *Target) (*Golden, *emu.TBPool, error) {
	g, gp, err := runGolden(t)
	if err != nil {
		return nil, nil, err
	}
	var pool *emu.TBPool
	if goldenCodeClean(gp) {
		pool = gp.Machine.BuildTBPool()
	}
	return g, pool, nil
}

// Campaign runs every fault in the plan against the target, using the
// given number of parallel workers (<=0 means 1), and classifies each
// mutant. Each worker owns a private platform, so the campaign scales
// with cores — the property the fault paper demonstrates on QEMU.
func Campaign(t *Target, plan Plan, workers int) (*Results, error) {
	return CampaignOpt(t, plan, Options{Workers: workers})
}

// CampaignOpt is Campaign with observability options. Mutants the
// harness cannot run are classified Errored and the run continues; the
// returned Results always covers the full plan, with the joined errors
// (errors.Join) alongside. Callers that care only about guest behaviour
// can therefore keep partial results even when err != nil.
func CampaignOpt(t *Target, plan Plan, o Options) (*Results, error) {
	return CampaignContext(context.Background(), t, plan, o)
}

// CampaignContext is CampaignOpt under a context. Cancellation (or a
// deadline) stops the workers at the next mutant boundary — each mutant
// is bounded by the target budget, so the campaign returns promptly
// with partial results: every classified slot keeps its outcome, slots
// never reached stay Errored, and the joined error includes ctx.Err().
func CampaignContext(ctx context.Context, t *Target, plan Plan, o Options) (*Results, error) {
	golden := o.Golden
	pool := o.Pool
	if golden == nil {
		g, gp, err := runGolden(t)
		if err != nil {
			return nil, err
		}
		golden = g
		// Freeze the golden run's compiled translation state into the
		// shared pool every worker warm-starts from. The golden platform
		// itself is discarded; only the immutable compiled blocks live
		// on. A golden run that dirtied its own code (self-modification,
		// wild jump into written data — detected exactly like the
		// injector's per-mutant check) compiled blocks that don't match
		// the pristine image workers validate against, so such a
		// campaign falls back to private caches.
		if !o.NoSharedPool && goldenCodeClean(gp) {
			pool = gp.Machine.BuildTBPool()
		}
	}
	workers := o.Workers
	if workers <= 0 {
		workers = 1
	}
	if o.NoSharedPool {
		pool = nil
	}
	if pool != nil {
		o.Metrics.Gauge("s4e_fault_pool_blocks", "shared translation-pool blocks").
			Set(float64(pool.Size()))
	}
	res := &Results{
		Total:     len(plan.Faults),
		ByOutcome: make(map[Outcome]int),
		ByModel:   make(map[Model]map[Outcome]int),
		Details:   make([]Outcome, len(plan.Faults)),
	}
	// Pre-fill with Errored: Masked is the zero value, so a slot no
	// worker ever reaches (all injector constructions failing, say) must
	// not silently read as a benign outcome.
	for i := range res.Details {
		res.Details[i] = Errored
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex // guards errs; Details slots are each owned by one worker
		errs []error

		done   atomic.Uint64
		counts [numOutcomes]atomic.Uint64
	)
	mDone := o.Metrics.Counter("s4e_fault_done_total", "mutants attempted")
	var mOutcome [numOutcomes]*obs.Counter
	for oc := Outcome(0); oc < numOutcomes; oc++ {
		mOutcome[oc] = o.Metrics.Counter(
			fmt.Sprintf("s4e_fault_mutants_total{outcome=%q}", oc.String()),
			"campaign mutants by classified outcome")
	}
	o.Metrics.Gauge("s4e_fault_workers", "parallel campaign workers").Set(float64(workers))

	start := time.Now()
	o.Trace.Emit("campaign-start", "mutants", len(plan.Faults), "workers", workers)

	stopProgress := make(chan struct{})
	var progressWG sync.WaitGroup
	if o.Progress != nil || o.OnProgress != nil {
		every := o.ProgressEvery
		if every <= 0 {
			every = time.Second
		}
		progressWG.Add(1)
		go func() {
			defer progressWG.Done()
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					if o.Progress != nil {
						writeProgress(o.Progress, done.Load(), uint64(res.Total), &counts, time.Since(start))
					}
					if o.OnProgress != nil {
						o.OnProgress(done.Load(), uint64(res.Total))
					}
				}
			}
		}()
	}

	// Buffered and pre-filled so a worker failing early can never block
	// the producer.
	idx := make(chan int, len(plan.Faults))
	for i := range plan.Faults {
		idx <- i
	}
	close(idx)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inj, err := newInjector(t, pool)
			if err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				return
			}
			// Per-mutant restore cost lands in the registry's
			// s4e_fault_restore_* histograms as it happens; the totals
			// are folded in with the rest of the worker's counters by
			// RecordStats below. Nil registry detaches (no-op).
			inj.p.AttachRestoreObs(o.Metrics)
			for i := range idx {
				if ctx.Err() != nil {
					return // cancelled: remaining slots stay Errored
				}
				out, err := inj.run(golden, plan.Faults[i])
				if err != nil {
					out = Errored
					mu.Lock()
					errs = append(errs, fmt.Errorf("mutant %d (%v): %w", i, plan.Faults[i], err))
					mu.Unlock()
				}
				res.Details[i] = out
				counts[out].Add(1)
				done.Add(1)
				mDone.Inc()
				mOutcome[out].Inc()
				o.Trace.Emit("mutant", "i", i, "fault", plan.Faults[i].String(), "outcome", out.String())
			}
			inj.p.RecordStats(o.Metrics)
		}()
	}
	wg.Wait()
	close(stopProgress)
	progressWG.Wait()
	res.Duration = time.Since(start)

	if secs := res.Duration.Seconds(); secs > 0 {
		o.Metrics.Gauge("s4e_fault_mutants_per_sec", "campaign throughput").
			Set(float64(done.Load()) / secs)
		o.Metrics.Gauge("s4e_fault_campaign_seconds", "campaign wall-clock duration").Set(secs)
	}
	if o.Progress != nil {
		writeProgress(o.Progress, done.Load(), uint64(res.Total), &counts, res.Duration)
	}
	if o.OnProgress != nil {
		o.OnProgress(done.Load(), uint64(res.Total))
	}
	o.Trace.Emit("campaign-end", "done", done.Load(), "errored", counts[Errored].Load(),
		"seconds", res.Duration.Seconds())

	if err := ctx.Err(); err != nil {
		mu.Lock()
		errs = append(errs, err)
		mu.Unlock()
	}

	for i, out := range res.Details {
		res.ByOutcome[out]++
		m := plan.Faults[i].Model
		if res.ByModel[m] == nil {
			res.ByModel[m] = make(map[Outcome]int)
		}
		res.ByModel[m][out]++
	}
	return res, errors.Join(errs...)
}

// writeProgress emits one live status line (counts read atomically, so
// the line is approximate while workers run).
func writeProgress(w io.Writer, done, total uint64, counts *[numOutcomes]atomic.Uint64, elapsed time.Duration) {
	pct := 100.0
	if total > 0 {
		pct = 100 * float64(done) / float64(total)
	}
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(done) / s
	}
	fmt.Fprintf(w, "fault: %d/%d mutants (%.1f%%) %.0f/sec masked=%d sdc=%d trapped=%d hung=%d errored=%d latency=%d\n",
		done, total, pct, rate,
		counts[Masked].Load(), counts[SDC].Load(), counts[Trapped].Load(),
		counts[Hung].Load(), counts[Errored].Load(), counts[LatencyViol].Load())
}

// String renders the campaign classification table.
func (r *Results) String() string {
	var sb strings.Builder
	outcomes := []Outcome{Masked, SDC, Trapped, Hung, Errored, LatencyViol}
	fmt.Fprintf(&sb, "%-16s %8s %8s %8s %8s %8s %8s %8s\n", "model", "total", "masked", "sdc", "trapped", "hung", "errored", "latency")
	models := make([]Model, 0, len(r.ByModel))
	for m := range r.ByModel {
		models = append(models, m)
	}
	sort.Slice(models, func(i, j int) bool { return models[i] < models[j] })
	for _, m := range models {
		row := r.ByModel[m]
		total := 0
		for _, n := range row {
			total += n
		}
		fmt.Fprintf(&sb, "%-16s %8d", m, total)
		for _, o := range outcomes {
			fmt.Fprintf(&sb, " %8d", row[o])
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "%-16s %8d", "all", r.Total)
	for _, o := range outcomes {
		fmt.Fprintf(&sb, " %8d", r.ByOutcome[o])
	}
	sb.WriteString("\n")
	return sb.String()
}
