package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/timing"
	"repro/internal/torture"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// The firmware workload: warm, steady-state guest execution on the
// default engine. Every kernel, every interrupt demonstrator and a few
// seeded torture programs run under the unit and edge-small profiles,
// each on its own platform rewound with RestoreReuse between runs. One
// pass runs every (program, profile) pair once. The seed draws the
// torture programs from a fixed pool whose results are all recorded in
// digests.json.

const (
	torturePool  = 16  // torture programs a seed draws from
	tortureCount = 4   // torture programs a run draws
	tortureInsts = 300 // body instructions per torture program

	// fwRAM sizes every firmware platform: the largest image is a few
	// KiB, and the stack starts at the top of RAM.
	fwRAM = 256 << 10

	fwWarmPasses = 20 // warm-up passes after the cold run

	// runSamples bounds the per-run times a segment keeps, about what a
	// segment of a 30-second run records on an unloaded 2-vCPU Xeon
	// guest.
	runSamples = 1 << 17
)

// defaultEngine is the zero emu.Engine: whatever the emulator runs by
// default, so the workload stays valid as engines come and go.
var defaultEngine emu.Engine

// fwProfiles are the timing profiles every program runs under.
var fwProfiles = []func() *timing.Profile{timing.Unit, timing.EdgeSmall}

// fwProgram is one firmware input.
type fwProgram struct {
	name    string // workload name, or torture<i>
	source  string
	budget  uint64
	expect  uint32 // checksum the program exits with (not for torture)
	torture bool
	handler string // interrupt demonstrators: the ISR symbol
	sensor  []int16
	stream  []int16
	uartIn  []byte
}

// fixedPrograms are the kernels and the demonstrators: the same on
// every seed.
func fixedPrograms() []fwProgram {
	var out []fwProgram
	for _, w := range append(workloads.All(), workloads.Interrupt()...) {
		out = append(out, fwProgram{
			name: w.Name, source: w.Source, budget: w.Budget, expect: w.Expect,
			handler: w.Handler, sensor: w.Sensor, stream: w.Stream, uartIn: w.UARTIn,
		})
	}
	return out
}

// tortureProgram is program i of the torture pool.
func tortureProgram(i int) fwProgram {
	tp := torture.Generate(torture.Config{Seed: int64(i) + 1, Insts: tortureInsts, ISA: isa.RV32Full})
	return fwProgram{name: fmt.Sprintf("torture%02d", i), source: tp.Source, budget: tp.Budget, torture: true}
}

// firmwarePrograms returns the fixed programs and the torture programs
// the seed draws from the pool.
func firmwarePrograms(seed int64) []fwProgram {
	out := fixedPrograms()
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(torturePool)[:tortureCount] {
		out = append(out, tortureProgram(i))
	}
	return out
}

// mipsName is the per-program MIPS metric a program reports under:
// every torture program shares one.
func (p fwProgram) mipsName() string {
	if p.torture {
		return "emu.mips.torture"
	}
	return "emu.mips." + p.name
}

// fwRun is one (program, profile) pair with its platform and the
// result every run must reproduce.
type fwRun struct {
	prog    *fwProgram
	profile string
	code    *asm.Program
	p       *vp.Platform
	base    *vp.Snapshot
	want    runResult // the cold run's result
	runDur  []float64 // traced run: ns per emu.run call
}

// runResult is how a run ended: its exit code, instructions retired
// and cycles.
type runResult struct {
	code          uint32
	insts, cycles uint64
}

// fwState is a set-up firmware workload.
type fwState struct {
	runs         []*fwRun
	instsPerPass uint64
	coldPass     time.Duration // first run of every pair, translation included
	assemble     time.Duration // total assembly time
	build        time.Duration // total platform construction time
}

func newPlatform(prog *fwProgram, profile *timing.Profile, code *asm.Program, engine emu.Engine) (*vp.Platform, error) {
	p, err := vp.New(vp.Config{
		RAMSize: fwRAM, Profile: profile,
		Sensor: prog.sensor, Stream: prog.stream, UARTIn: prog.uartIn,
	})
	if err != nil {
		return nil, err
	}
	p.Machine.Engine = engine
	if err := p.LoadProgram(code); err != nil {
		return nil, err
	}
	return p, nil
}

// stepReference runs the program one instruction at a time with Step.
// For the batch programs it is the reference every engine must match
// exactly. The demonstrators take their interrupts at instruction
// rather than block granularity under Step, so only their checksum is
// engine-independent; their recorded digest is the reference instead.
func stepReference(prog *fwProgram, profile *timing.Profile, code *asm.Program) (runResult, error) {
	p, err := newPlatform(prog, profile, code, defaultEngine)
	if err != nil {
		return runResult{}, err
	}
	m := p.Machine
	var stop *emu.StopInfo
	for stop == nil && m.Hart.Instret < prog.budget {
		stop = m.Step()
	}
	if stop == nil || stop.Reason != emu.StopExit {
		return runResult{}, fmt.Errorf("%s/%s: reference run did not exit: %v", prog.name, profile.ProfileName, stop)
	}
	return runResult{stop.Code, m.Hart.Instret, m.Hart.Cycle}, nil
}

// setupFirmware assembles and loads every program and runs it once
// cold, translation included. That first run's result is what every
// later run must reproduce; setup checks it against the program's
// checksum, against Step for the batch programs, and against the
// recorded digests d. A few warm passes follow.
func setupFirmware(programs []fwProgram, d digests, engine emu.Engine, rep *report, tr *tracer) (*fwState, error) {
	s := &fwState{}
	for i := range programs {
		prog := &programs[i]
		t0 := time.Now()
		sp := tr.begin("asm.assemble", "setup")
		code, err := asm.AssembleAt(vp.Prelude+prog.source, vp.RAMBase)
		tr.end(sp)
		s.assemble += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", prog.name, err)
		}
		for _, mk := range fwProfiles {
			profile := mk()
			key := prog.name + "/" + profile.ProfileName
			t0 := time.Now()
			sp := tr.begin("vp.build", "setup")
			p, err := newPlatform(prog, profile, code, engine)
			var base *vp.Snapshot
			if err == nil {
				base = p.Snapshot()
			}
			tr.end(sp)
			s.build += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			t0 = time.Now()
			sp = tr.begin("emu.run", "cold")
			stop := p.Run(prog.budget)
			tr.end(sp)
			s.coldPass += time.Since(t0)
			got := runResult{stop.Code, p.Machine.Hart.Instret, p.Machine.Hart.Cycle}
			rep.attempted++
			rec, recorded := d.Firmware[key]
			switch {
			case stop.Reason != emu.StopExit:
				rep.fail("%s: %v", key, stop)
			case !prog.torture && got.code != prog.expect:
				rep.fail("%s: exits with 0x%x, checksum is 0x%x", key, got.code, prog.expect)
			case !recorded:
				rep.fail("%s: no recorded digest", key)
			case rec != [2]uint64{got.insts, got.cycles}:
				rep.fail("%s: %d instructions, %d cycles; recorded %d, %d", key, got.insts, got.cycles, rec[0], rec[1])
			}
			if prog.handler == "" {
				sp = tr.begin("emu.step_reference", "setup")
				want, err := stepReference(prog, mk(), code)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				rep.attempted++
				if want != got {
					rep.fail("%s: engine %+v, Step %+v", key, got, want)
				}
			}
			s.runs = append(s.runs, &fwRun{prog: prog, profile: profile.ProfileName, code: code, p: p, base: base, want: got})
			s.instsPerPass += got.insts
		}
	}
	for i := 0; i < fwWarmPasses; i++ {
		s.pass(rep, tr, "warm", nil)
	}
	return s, nil
}

// pass runs every (program, profile) pair once, checking each run
// against its reference. runTimes, when non-nil, receives each run's
// CPU time (rewind plus run) in ms, read from the thread's own clock:
// the caller is locked to its thread.
func (s *fwState) pass(rep *report, tr *tracer, op string, runTimes *sampleBuf) {
	for _, r := range s.runs {
		var t0 time.Duration
		if runTimes != nil {
			t0 = threadCPU()
		}
		sp := tr.begin("vp.restore", op)
		r.p.RestoreReuse(r.base, r.code)
		tr.end(sp)
		sp = tr.begin("emu.run", op)
		stop := r.p.Run(r.prog.budget)
		tr.end(sp)
		if runTimes != nil {
			runTimes.add(ms(threadCPU() - t0))
		}
		if tr != nil {
			r.runDur = append(r.runDur, float64(tr.spans[sp].End-tr.spans[sp].Start))
		}
		rep.attempted++
		h := &r.p.Machine.Hart
		if stop.Reason != emu.StopExit || stop.Code != r.want.code || h.Instret != r.want.insts || h.Cycle != r.want.cycles {
			rep.fail("%s/%s: %v after %d instructions, %d cycles; want exit(0x%x) after %d, %d",
				r.prog.name, r.profile, stop, h.Instret, h.Cycle, r.want.code, r.want.insts, r.want.cycles)
		}
	}
}

func runFirmware(cfg runConfig, tr *tracer) (*report, error) {
	rep := &report{e2e: map[string]metric{}, layer: map[string]metric{}}
	// Per-run times come from this thread's CPU clock.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	programs := firmwarePrograms(cfg.seed)
	// Every segment keeps its own per-run times, to be scaled by its
	// host factor and pooled in allRuns.
	runTimes := make([]*sampleBuf, segments)
	for i := range runTimes {
		runTimes[i] = newSampleBuf(runSamples)
	}
	allRuns := newSampleBuf(segments * runSamples)
	var (
		passes                    []float64   // µs per pass, every segment
		segPasses                 [][]float64 // µs per pass, by segment
		instsPerPass              uint64
		spent                     memSample
		stats                     emu.EngineStats
		restored                  uint64
		coldPass, assemble, build []float64 // ms per set-up
		// Traced run: per (program, profile) pair, its MIPS keys, its
		// instructions and every run's ns.
		keys    [][2]string
		insts   []float64
		runDurs [][]float64
	)
	gauge := &hostGauge{}
	setups, factors, err := segmented(gauge,
		func(int) (*fwState, error) { return setupFirmware(programs, cfg.digests, defaultEngine, rep, tr) },
		func(s *fwState, seg int) {
			runtime.GC()
			m0 := readMem()
			stats0, restore0 := s.counters()
			ps := timedPasses(cfg.dur/segments, tr, func(op string) { s.pass(rep, tr, op, runTimes[seg]) })
			segPasses = append(segPasses, ps)
			passes = append(passes, ps...)
			spent.add(readMem().since(m0))
			stats1, restore1 := s.counters()
			stats.Add(statsSince(stats0, stats1))
			restored += restore1 - restore0
			instsPerPass = s.instsPerPass
			coldPass = append(coldPass, ms(s.coldPass))
			assemble = append(assemble, ms(s.assemble))
			build = append(build, ms(s.build))
			if seg == 0 {
				runDurs = make([][]float64, len(s.runs))
				for _, r := range s.runs {
					keys = append(keys, [2]string{r.prog.mipsName(), "emu.mips." + r.profile})
					insts = append(insts, float64(r.want.insts))
				}
			}
			for i, r := range s.runs {
				runDurs[i] = append(runDurs[i], r.runDur...)
			}
		}, nil)
	if err != nil {
		return nil, err
	}

	// Every time is divided by its segment's host factor.
	var allPasses, allSetups []float64
	for i, f := range factors {
		allSetups = append(allSetups, setups[i]/f)
		allPasses = scaled(allPasses, segPasses[i], f)
		for _, v := range runTimes[i].kept() {
			allRuns.add(float64(v) / f)
		}
	}
	medPass := median(allPasses) // µs
	runsPerPass := float64(len(insts))
	rep.e2e["guest_mips"] = metric{float64(instsPerPass) / medPass, "1/us"}
	rep.e2e["jobs_per_s"] = metric{runsPerPass / medPass * 1e6, "1/s"}
	// Firmware injects no faults: every run is the rewind-and-run cycle a
	// campaign spends per mutant, without the injection.
	rep.e2e["mutants_per_s"] = rep.e2e["jobs_per_s"]
	rep.e2e["job_p50_ms"] = metric{allRuns.quantile(0.50), "ms"}
	rep.e2e["job_p99_ms"] = metric{allRuns.quantile(0.99), "ms"}
	rep.e2e["setup_s"] = metric{median(allSetups), "s"}
	rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.hostFactor = median(factors)
	if tr == nil {
		return rep, nil
	}

	l := rep.layer
	runs := float64(len(passes)) * runsPerPass
	l["bench.host_factor"] = metric{rep.hostFactor, "ratio"}
	l["emu.run_us"] = metric{median(tr.durations("emu.run")) / 1e3, "us"}
	l["vp.restore_us"] = metric{median(tr.durations("vp.restore")) / 1e3, "us"}
	l["emu.pass_p99_ms"] = metric{quantile(passes, 0.99) / 1e3, "ms"}
	l["emu.translate_pass_ms"] = metric{median(coldPass), "ms"}
	l["asm.assemble_ms"] = metric{median(assemble), "ms"}
	l["vp.build_ms"] = metric{median(build), "ms"}

	// MIPS per program and per profile from each pair's median run time.
	instsBy, nsBy := map[string]float64{}, map[string]float64{}
	for i, ks := range keys {
		med := median(runDurs[i])
		for _, k := range ks {
			instsBy[k] += insts[i]
			nsBy[k] += med
		}
	}
	for k := range instsBy {
		l[k] = metric{instsBy[k] / nsBy[k] * 1e3, "1/us"}
	}

	l["emu.tbs_compiled_per_pass"] = metric{float64(stats.TBsCompiled) / float64(len(passes)), "count"}
	l["emu.jump_cache_hit_rate"] = metric{stats.JumpCacheHitRate(), "ratio"}
	l["emu.chain_follows_per_kinst"] = metric{ratio(float64(stats.ChainFollows), float64(instsPerPass)*float64(len(passes))/1e3), "count"}
	l["emu.trace_side_exit_rate"] = metric{stats.TraceSideExitRate(), "ratio"}
	l["vp.restore_bytes_per_run"] = metric{ratio(float64(restored), runs), "B"}
	addRuntimeMetrics(l, spent, int(runs))

	// Diagnostic: the same passes on every engine, untraced, on one
	// set-up each.
	engineDur := max(cfg.dur/8, 100*time.Millisecond)
	for _, name := range emu.EngineNames() {
		engine, err := emu.ParseEngine(name)
		if err != nil {
			return nil, err
		}
		es, err := setupFirmware(programs, cfg.digests, engine, rep, nil)
		if err != nil {
			return nil, err
		}
		ep := timedPasses(engineDur, nil, func(op string) { es.pass(rep, nil, op, nil) })
		l["emu.mips.engine."+name] = metric{float64(es.instsPerPass) / median(ep), "1/us"}
	}
	return rep, nil
}

// counters sums the engine counters and restored bytes of every
// platform.
func (s *fwState) counters() (emu.EngineStats, uint64) {
	var st emu.EngineStats
	var bytes uint64
	for _, r := range s.runs {
		st.Add(r.p.Machine.Stats())
		bytes += r.p.RestoreStats().RestoreBytes
	}
	return st, bytes
}

// statsSince is what the engine counters the workload reports counted
// from before to after.
func statsSince(before, after emu.EngineStats) emu.EngineStats {
	return emu.EngineStats{
		TBsCompiled:     after.TBsCompiled - before.TBsCompiled,
		JumpCacheHits:   after.JumpCacheHits - before.JumpCacheHits,
		JumpCacheMisses: after.JumpCacheMisses - before.JumpCacheMisses,
		ChainFollows:    after.ChainFollows - before.ChainFollows,
		TraceRuns:       after.TraceRuns - before.TraceRuns,
		TraceSideExits:  after.TraceSideExits - before.TraceSideExits,
	}
}
