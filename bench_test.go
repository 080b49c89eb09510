// Package repro's root benchmarks regenerate every evaluation table and
// figure (EXPERIMENTS.md E2..E10) under `go test -bench`. Each benchmark
// reports the domain metric (guest cycles, MIPS, mutants/sec, coverage
// percent) alongside the usual ns/op so the tables can be read straight
// off the benchmark output.
package repro

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/cover"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/plugin"
	"repro/internal/qta"
	"repro/internal/suites"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// benchWorkloads is the representative subset used where running all 15
// kernels per variant would dominate benchmark time.
var benchWorkloads = []string{"xtea", "crc32", "fir", "matmul", "sort", "pid"}

func getWorkload(b *testing.B, name string) workloads.Workload {
	b.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	return w
}

// BenchmarkE2_QTA regenerates the QTA three-way timing table: one run
// per iteration; static WCET, QTA time and dynamic cycles are reported
// as metrics.
func BenchmarkE2_QTA(b *testing.B) {
	prof := timing.EdgeSmall()
	for _, name := range benchWorkloads {
		w := getWorkload(b, name)
		b.Run(name, func(b *testing.B) {
			var res qta.Result
			for i := 0; i < b.N; i++ {
				r, err := flow.RunQTA(context.Background(), w, prof, asm.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if !res.Sound() {
				b.Fatalf("unsound: %+v", res)
			}
			b.ReportMetric(float64(res.StaticWCET), "static-cycles")
			b.ReportMetric(float64(res.QTATime), "qta-cycles")
			b.ReportMetric(float64(res.Dynamic), "dyn-cycles")
			b.ReportMetric(float64(res.StaticWCET)/float64(res.Dynamic), "static/dyn")
		})
	}
}

// BenchmarkE3_Overhead measures plain emulation vs. counting-plugin vs.
// QTA instrumentation cost on the same workload.
func BenchmarkE3_Overhead(b *testing.B) {
	prof := timing.EdgeSmall()
	w := getWorkload(b, "xtea")
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		b.Fatal(err)
	}
	a, err := flow.Analyze(context.Background(), prog, prof, w.LoopBounds, false)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, mk func() plugin.Plugin) {
		var insts uint64
		for i := 0; i < b.N; i++ {
			var plugins []plugin.Plugin
			if mk != nil {
				plugins = append(plugins, mk())
			}
			p, stop, err := flow.RunWith(w, prof, plugins...)
			if err != nil || stop.Reason != emu.StopExit {
				b.Fatalf("%v %v", stop, err)
			}
			insts = p.Machine.Hart.Instret
			p.Release()
		}
		b.ReportMetric(float64(insts), "guest-insts")
	}
	b.Run("plain", func(b *testing.B) { run(b, nil) })
	b.Run("count-plugin", func(b *testing.B) {
		run(b, func() plugin.Plugin { return &plugin.Count{} })
	})
	b.Run("qta", func(b *testing.B) {
		run(b, func() plugin.Plugin { return qta.New(a.Annotated) })
	})
}

// BenchmarkE4_Coverage times the three suite families under the coverage
// collector and reports their coverage percentages.
func BenchmarkE4_Coverage(b *testing.B) {
	set := isa.RV32IMF
	fams := []struct {
		name  string
		suite suites.Suite
	}{
		{"architectural", suites.Architectural(set)},
		{"unit", suites.Unit(set)},
		{"torture", suites.Torture(set, 4, 1000)},
	}
	for _, f := range fams {
		b.Run(f.name, func(b *testing.B) {
			var rep cover.Report
			for i := 0; i < b.N; i++ {
				c, err := suites.Run(f.suite, set)
				if err != nil {
					b.Fatal(err)
				}
				rep = c.Report()
			}
			b.ReportMetric(cover.Pct(rep.OpsCovered, rep.OpsTotal), "insn-cov-%")
			b.ReportMetric(cover.Pct(rep.GPRCovered, 32), "gpr-cov-%")
		})
	}
}

// faultTarget builds the shared campaign target.
func faultTarget(b *testing.B, name string) (*fault.Target, *fault.Golden) {
	b.Helper()
	w := getWorkload(b, name)
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		b.Fatal(err)
	}
	tg := &fault.Target{Program: prog, Budget: w.Budget, Sensor: w.Sensor}
	g, err := fault.RunGolden(tg)
	if err != nil {
		b.Fatal(err)
	}
	return tg, g
}

// BenchmarkE5_Fault regenerates the outcome classification per fault
// model and reports the masked/SDC fractions and the campaign rate
// (golden run included, as in every campaign without a passed golden).
func BenchmarkE5_Fault(b *testing.B) {
	tg, g := faultTarget(b, "crc32")
	end := vp.RAMBase + uint32(len(tg.Program.Bytes))
	models := []struct {
		name string
		cfg  fault.PlanConfig
	}{
		{"gpr-transient", fault.PlanConfig{Seed: 9, GPRTransient: 100, GoldenInsts: g.Insts}},
		{"gpr-permanent", fault.PlanConfig{Seed: 9, GPRPermanent: 100}},
		{"mem-permanent", fault.PlanConfig{Seed: 9, MemPermanent: 100,
			DataStart: vp.RAMBase, DataEnd: end}},
		{"code-bitflip", fault.PlanConfig{Seed: 9, CodeBitflip: 100,
			CodeStart: vp.RAMBase, CodeEnd: end}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			var res *fault.Results
			for i := 0; i < b.N; i++ {
				r, err := fault.Campaign(tg, fault.NewPlan(m.cfg), runtime.NumCPU())
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			b.ReportMetric(100*float64(res.ByOutcome[fault.Masked])/float64(res.Total), "masked-%")
			b.ReportMetric(100*float64(res.ByOutcome[fault.SDC])/float64(res.Total), "sdc-%")
			b.ReportMetric(100*float64(res.ByOutcome[fault.Trapped])/float64(res.Total), "trapped-%")
			b.ReportMetric(float64(res.Total)*float64(b.N)/b.Elapsed().Seconds(), "mutants/sec")
		})
	}
}

// BenchmarkE6_Campaign measures campaign throughput against worker count
// (mutants per second).
func BenchmarkE6_Campaign(b *testing.B) {
	tg, g := faultTarget(b, "pid")
	plan := fault.NewPlan(fault.PlanConfig{Seed: 4, GPRTransient: 200, GoldenInsts: g.Insts})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := fault.Campaign(tg, plan, workers); err != nil {
					b.Fatal(err)
				}
			}
			mutantsPerOp := float64(len(plan.Faults))
			b.ReportMetric(mutantsPerOp*float64(b.N)/b.Elapsed().Seconds(), "mutants/sec")
		})
	}
}

// BenchmarkE7_BMI regenerates the bit-manipulation speedup table: guest
// cycles for the base and Xbmi variant of each kernel pair.
func BenchmarkE7_BMI(b *testing.B) {
	prof := timing.EdgeSmall()
	for _, pair := range workloads.Pairs() {
		base, bmi := pair[0], pair[1]
		var cb, cx uint64
		b.Run(base.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, stop, err := flow.RunWith(base, prof)
				if err != nil || stop.Reason != emu.StopExit {
					b.Fatalf("%v %v", stop, err)
				}
				cb = p.Machine.Hart.Cycle
				p.Release()
			}
			b.ReportMetric(float64(cb), "guest-cycles")
		})
		b.Run(bmi.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, stop, err := flow.RunWith(bmi, prof)
				if err != nil || stop.Reason != emu.StopExit {
					b.Fatalf("%v %v", stop, err)
				}
				cx = p.Machine.Hart.Cycle
				p.Release()
			}
			b.ReportMetric(float64(cx), "guest-cycles")
			if cb > 0 {
				b.ReportMetric(float64(cb)/float64(cx), "speedup-x")
			}
		})
	}
}

// BenchmarkE8_MIPS measures raw emulation speed across the engine axis:
// the compiled superblock engine and the interpreter-switch engine, on
// the representative kernels plus the interrupt-driven demonstrators,
// so both kinds of interrupt poll — the skipped one and the full one a
// due device event forces — are timed. One platform is built per
// sub-benchmark and rewound between iterations with RestoreReuse, so
// the timed loop holds emulation only — not assembly or RAM allocation.
func BenchmarkE8_MIPS(b *testing.B) {
	names := slices.Clone(benchWorkloads)
	for _, w := range workloads.Interrupt() {
		names = append(names, w.Name)
	}
	for _, engine := range emu.Engines() {
		b.Run(engine.String(), func(b *testing.B) {
			for _, name := range names {
				w := getWorkload(b, name)
				b.Run(name, func(b *testing.B) {
					prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
					if err != nil {
						b.Fatal(err)
					}
					p, err := vp.New(vp.Config{Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn})
					if err != nil {
						b.Fatal(err)
					}
					p.Machine.Engine = engine
					if err := p.LoadProgram(prog); err != nil {
						b.Fatal(err)
					}
					base := p.Snapshot()
					var insts uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p.RestoreReuse(base, prog)
						stop := p.Run(w.Budget)
						if stop.Reason != emu.StopExit {
							b.Fatalf("%v", stop)
						}
						insts = p.Machine.Hart.Instret
					}
					b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds()/1e6, "MIPS")
				})
			}
		})
	}
}

// BenchmarkE12_RestoreScatter measures the dirty-page rewind on a
// scattered-store workload: one word near the bottom of RAM and one near
// the top, so the watermark box spans almost all of RAM while only two
// pages are dirty. It reports the bytes and pages actually copied per
// restore.
func BenchmarkE12_RestoreScatter(b *testing.B) {
	const scatterSrc = `
	la t0, buf
	li a1, 0x1234
	sw a1, 0(t0)
	sw a1, -16(sp)
	ebreak
buf:
	.word 0
`
	p, err := vp.New(vp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	prog, err := p.LoadSource(vp.Prelude + scatterSrc)
	if err != nil {
		b.Fatal(err)
	}
	base := p.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
			b.Fatalf("%+v", stop)
		}
		p.RestoreReuse(base, prog)
	}
	b.StopTimer()
	st := p.RestoreStats()
	if st.Restores > 0 {
		b.ReportMetric(float64(st.RestoreBytes)/float64(st.Restores), "restore-B/op")
		b.ReportMetric(float64(st.RestorePages)/float64(st.Restores), "restore-pages/op")
	}
}

// BenchmarkE10_PoolCampaign measures campaign throughput with and
// without the shared translation pool at several worker counts, and
// reports the compiled-block count per campaign — the work the pool
// eliminates. One op is one full campaign over a mixed plan.
func BenchmarkE10_PoolCampaign(b *testing.B) {
	tg, g := faultTarget(b, "crc32")
	end := vp.RAMBase + uint32(len(tg.Program.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         10,
		GPRTransient: 100,
		MemPermanent: 50,
		CodeBitflip:  100,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase,
		CodeEnd:      end,
		DataStart:    vp.RAMBase,
		DataEnd:      end,
	})
	for _, eng := range []struct {
		name   string
		engine emu.Engine
	}{
		{"superblock", emu.EngineSuperblock},
		{"switch", emu.EngineSwitch},
	} {
		etg := *tg
		etg.Engine = eng.engine
		for _, mode := range []struct {
			name   string
			noPool bool
		}{
			{"shared-pool", false},
			{"private-caches", true},
		} {
			for _, workers := range []int{1, 4} {
				b.Run(fmt.Sprintf("%s/%s/workers-%d", eng.name, mode.name, workers), func(b *testing.B) {
					var tbs uint64
					for i := 0; i < b.N; i++ {
						reg := obs.NewRegistry()
						res, err := fault.CampaignOpt(&etg, plan, fault.Options{
							Workers: workers, NoSharedPool: mode.noPool, Metrics: reg,
						})
						if err != nil {
							b.Fatal(err)
						}
						if res.Total != len(plan.Faults) {
							b.Fatalf("short campaign: %d/%d", res.Total, len(plan.Faults))
						}
						tbs = reg.Counter(vp.MetricTBsCompiled, "").Value()
					}
					b.ReportMetric(float64(len(plan.Faults))*float64(b.N)/b.Elapsed().Seconds(), "mutants/sec")
					b.ReportMetric(float64(tbs), "tbs-compiled")
				})
			}
		}
	}
}

// BenchmarkE14_ISRCampaign runs the ISR-targeted dma_stream campaign the
// way perfbench's campaign workload builds it: a 64 KiB platform, a
// mutant budget of 8x the golden run's instructions, a 2-cycle
// interrupt-latency budget, plan seed 1 (300 register, 150 memory and
// 150 code faults on the handler and its stack), one worker, and the
// golden run and translation pool from fault.Prepare. Hung mutants loop
// through PLIC claims, faulting stores and trap entry until the budget
// runs out, so this is the bus- and device-bound campaign. One op is one
// campaign over the whole plan.
func BenchmarkE14_ISRCampaign(b *testing.B) {
	w := getWorkload(b, "dma_stream")
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		b.Fatal(err)
	}
	tg := &fault.Target{
		Program: prog, Budget: w.Budget, RAMSize: 64 << 10,
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		LatencyBudget: 2,
	}
	g, err := fault.RunGolden(tg)
	if err != nil {
		b.Fatal(err)
	}
	tg.Budget = 8 * g.Insts
	golden, pool, err := fault.Prepare(tg)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fault.NewISRPlan(prog, w.Handler, fault.ISRPlanConfig{
		Seed: 1, GPRTransient: 300, MemPermanent: 150, CodeBitflip: 150,
		GoldenInsts: golden.Insts, StackTop: tg.StackTop(),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: 1, Golden: golden, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		if res.Total != len(plan.Faults) {
			b.Fatalf("short campaign: %d/%d", res.Total, len(plan.Faults))
		}
	}
	b.ReportMetric(float64(len(plan.Faults))*float64(b.N)/b.Elapsed().Seconds(), "mutants/sec")
}

// BenchmarkE13_IRT regenerates the interrupt-response-time table
// (EXPERIMENTS.md E13): per interrupt demonstrator, the static IRT
// bound against the worst service latency an adversarially timed
// interrupt campaign observes, plus the pessimism ratio. The benchmark
// fails if the bound is ever undercut, so a timing-model regression
// shows up as a broken bench run, not just a changed number.
func BenchmarkE13_IRT(b *testing.B) {
	prof := timing.EdgeSmall()
	for _, w := range workloads.Interrupt() {
		b.Run(w.Name, func(b *testing.B) {
			var res *flow.IRTResult
			for i := 0; i < b.N; i++ {
				r, err := flow.RunIRT(context.Background(), w, prof, flow.IRTConfig{
					Engine: emu.EngineSuperblock, Samples: 24, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				res = r
			}
			if !res.Sound {
				b.Fatalf("unsound: bound %d < observed %d", res.Static.Bound, res.Measured.MaxLatency)
			}
			b.ReportMetric(float64(res.Static.Bound), "bound-cycles")
			b.ReportMetric(float64(res.Measured.MaxLatency), "observed-cycles")
			b.ReportMetric(res.Ratio, "ratio")
			b.ReportMetric(float64(res.Measured.Delivered), "delivered")
		})
	}
}
