package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// The campaign workload: single-worker fault campaigns on the path
// s4e-fault takes — fault.Prepare (golden run plus translation pool),
// then fault.CampaignOpt with that golden run and pool. One pass runs a
// register/memory/code bit-flip campaign on the pid kernel and an
// ISR-targeted, latency-budgeted campaign on the dma_stream
// demonstrator. Each campaign is executed as contiguous shards of
// campaignShard mutants, the way the service runs a sharded fault job,
// and merged with fault.MergeShards; a shard is the workload's job.
// Each target has planVariants fixed plan variants, whose outcome
// vectors are all recorded in digests.json. A pass runs one variant per
// target, and successive passes rotate through all of them, starting at
// the variant the seed draws: every run covers every variant equally,
// so what a run costs does not depend on its seed.

// cpSpec is one campaign target: the workload it injects into, its plan
// shape and its interrupt-latency budget in cycles (0: none).
type cpSpec struct {
	name           string
	gpr, mem, code int
	isr            bool // plan concentrated on the handler and its stack
	latency        uint64
}

var campaignSpecs = []cpSpec{
	{name: "pid", gpr: 1000, mem: 500, code: 500},
	{name: "dma_stream", gpr: 300, mem: 150, code: 150, isr: true, latency: dmaLatencyBudget},
}

// planSeeds are the plan seeds of a target's variants, one per
// variant. Seed 5 is left out because its
// dma_stream plan has no latency violation, and every variant is meant
// to exercise that classification.
var planSeeds = []int64{1, 2, 3, 4, 6, 7, 8, 9}

// planVariants is how many recorded plans each target has.
var planVariants = len(planSeeds)

const (
	campaignShard = 200 // mutants per CampaignOpt call

	// budgetFactor sets each mutant's instruction budget to this many
	// times the golden run's instructions: a watchdog that bounds what
	// a hung mutant costs.
	budgetFactor = 8

	// dmaLatencyBudget is the ISR campaign's interrupt-service latency
	// budget: the fault-free run's worst pending-to-trap latency on the
	// campaign's (default) profile, 2 cycles. A mutant that delays a
	// DMA trap by one cycle more is a latency violation; 1 to 4 mutants
	// in every dma_stream plan variant are, so the recorded outcome
	// vectors pin the latency classification too.
	dmaLatencyBudget = 2

	// campaignRAM sizes the campaign platforms: image plus stack.
	campaignRAM = 64 << 10
)

// cpTarget is one prepared campaign target: its golden run, shared
// translation pool, plan variants and the outcome digest each variant
// must reproduce.
type cpTarget struct {
	name    string
	tg      *fault.Target
	golden  *fault.Golden
	pool    *emu.TBPool
	plans   []fault.Plan // one per variant
	wants   []string     // recorded outcome digest per variant
	expect  uint32       // the golden run's exit code
	prepare time.Duration
}

// key names variant v of the target as digests.json does.
func (t *cpTarget) key(v int) string { return t.name + "/" + strconv.Itoa(v) }

// prepareTarget assembles a target's workload, measures its golden run
// to set the mutant budget, prepares the golden run and pool that
// campaigns share, and builds every plan variant. It also returns the
// assembly time.
func prepareTarget(spec cpSpec, tr *tracer) (*cpTarget, time.Duration, error) {
	w, ok := workloads.ByName(spec.name)
	if !ok {
		return nil, 0, fmt.Errorf("campaign: no workload %s", spec.name)
	}
	t0 := time.Now()
	sp := tr.begin("asm.assemble", "setup")
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	tr.end(sp)
	assemble := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	tg := &fault.Target{
		Program: prog, Budget: w.Budget, RAMSize: campaignRAM,
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		LatencyBudget: spec.latency,
	}
	sp = tr.begin("fault.golden", "setup")
	g, err := fault.RunGolden(tg)
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	tg.Budget = budgetFactor * g.Insts

	t := &cpTarget{name: spec.name, tg: tg, expect: w.Expect}
	t0 = time.Now()
	sp = tr.begin("fault.prepare", "setup")
	t.golden, t.pool, err = fault.Prepare(tg)
	tr.end(sp)
	t.prepare = time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
	}
	end := vp.RAMBase + uint32(len(prog.Bytes))
	for _, seed := range planSeeds {
		var plan fault.Plan
		if spec.isr {
			plan, err = fault.NewISRPlan(prog, w.Handler, fault.ISRPlanConfig{
				Seed: seed, GPRTransient: spec.gpr, MemPermanent: spec.mem, CodeBitflip: spec.code,
				GoldenInsts: t.golden.Insts, StackTop: tg.StackTop(),
			})
			if err != nil {
				return nil, 0, fmt.Errorf("%s: %w", spec.name, err)
			}
		} else {
			plan = fault.NewPlan(fault.PlanConfig{
				Seed: seed, GPRTransient: spec.gpr, MemPermanent: spec.mem, CodeBitflip: spec.code,
				GoldenInsts: t.golden.Insts,
				CodeStart:   vp.RAMBase, CodeEnd: end, DataStart: vp.RAMBase, DataEnd: end,
			})
		}
		t.plans = append(t.plans, plan)
	}
	return t, assemble, nil
}

// firstVariant is the plan variant the seed starts its passes at.
func firstVariant(seed int64) int {
	return rand.New(rand.NewSource(seed)).Intn(planVariants)
}

// cpState is a set-up campaign workload.
type cpState struct {
	targets []*cpTarget
	next    int // the variant the next pass runs
	// Every variant of a target has the same size, so every pass does.
	mutantsPerPass int
	// instsPerPass is the guest work of one pass in golden-run
	// instructions: mutants times the golden run's length. The fault API
	// does not report what each mutant retired.
	instsPerPass uint64
	assemble     time.Duration
	counts       map[fault.Outcome]int // outcomes of every pass so far
}

// setupCampaign prepares every target, checks the golden runs, and
// warms up with one pass.
func setupCampaign(cfg runConfig, rep *report, tr *tracer) (*cpState, error) {
	s := &cpState{next: firstVariant(cfg.seed), counts: map[fault.Outcome]int{}}
	for _, spec := range campaignSpecs {
		t, assemble, err := prepareTarget(spec, tr)
		if err != nil {
			return nil, err
		}
		s.assemble += assemble
		rep.attempted++
		if t.golden.Stop.Reason != emu.StopExit || t.golden.Stop.Code != t.expect {
			rep.fail("%s: golden run %v, want exit(0x%x)", t.name, t.golden.Stop, t.expect)
		}
		for v := range t.plans {
			rec, ok := cfg.digests.Campaign[t.key(v)]
			if !ok {
				rep.fail("%s: no recorded outcome digest", t.key(v))
			}
			t.wants = append(t.wants, rec)
		}
		s.targets = append(s.targets, t)
		s.mutantsPerPass += len(t.plans[0].Faults)
		s.instsPerPass += uint64(len(t.plans[0].Faults)) * t.golden.Insts
	}
	s.pass(rep, tr, "warm", nil, nil, nil)
	return s, nil
}

// pass runs the next variant of every target's campaign once, shard by
// shard, and checks each merged outcome vector against its recorded
// digest; an errored mutant fails as well. shardTimes, when non-nil,
// receives each shard's process CPU time in ms; targetTimes each
// target's total in ms.
func (s *cpState) pass(rep *report, tr *tracer, op string, reg *obs.Registry, shardTimes *[]float64, targetTimes map[string][]float64) {
	v := s.next
	s.next = (v + 1) % planVariants
	for _, t := range s.targets {
		plan := t.plans[v]
		n := len(plan.Faults)
		var offsets []int
		var parts []*fault.Results
		var total time.Duration
		for lo := 0; lo < n; lo += campaignShard {
			sub := plan.Range(lo, lo+campaignShard)
			t0 := processCPU()
			sp := tr.begin("fault.campaign", op)
			res, err := fault.CampaignOpt(t.tg, sub, fault.Options{Workers: 1, Golden: t.golden, Pool: t.pool, Metrics: reg})
			tr.end(sp)
			d := processCPU() - t0
			total += d
			if shardTimes != nil {
				*shardTimes = append(*shardTimes, ms(d))
			}
			if err != nil {
				rep.fail("%s shard at %d: %v", t.key(v), lo, err)
			}
			if res == nil {
				res = &fault.Results{Total: len(sub.Faults), Details: make([]fault.Outcome, len(sub.Faults))}
				for i := range res.Details {
					res.Details[i] = fault.Errored
				}
			}
			offsets = append(offsets, lo)
			parts = append(parts, res)
		}
		if targetTimes != nil {
			targetTimes[t.name] = append(targetTimes[t.name], ms(total))
		}
		rep.attempted += n
		merged, err := fault.MergeShards(plan, offsets, parts)
		if err != nil {
			rep.fail("%s: merge: %v", t.key(v), err)
			continue
		}
		for o, c := range merged.ByOutcome {
			s.counts[o] += c
		}
		for i, o := range merged.Details {
			if o == fault.Errored {
				rep.fail("%s mutant %d (%v): errored", t.key(v), i, plan.Faults[i])
			}
		}
		// An errored mutant changes the digest too; it has failed already.
		if got := outcomeDigest(merged.Details); got != t.wants[v] && merged.ByOutcome[fault.Errored] == 0 {
			rep.fail("%s: outcome digest %s %v, recorded %q", t.key(v), got, merged.ByOutcome, t.wants[v])
		}
	}
}

func runCampaign(cfg runConfig, tr *tracer) (*report, error) {
	rep := &report{e2e: map[string]metric{}, layer: map[string]metric{}}
	// The untraced run passes no registry: counters are part of what
	// the traced run adds.
	var reg *obs.Registry
	if tr != nil {
		reg = obs.NewRegistry()
	}
	var (
		passes            []float64   // µs per pass, every segment
		segPasses         [][]float64 // µs per pass, by segment
		shardTimes        []float64   // ms per shard, every segment
		segShards         [][]float64 // ms per shard, by segment
		targetTimes       = map[string][]float64{}
		spent             memSample
		mutantsPerPass    int
		instsPerPass      uint64
		prepare, assemble []float64 // ms per set-up
		counts            = map[string]float64{}
	)
	gauge := &hostGauge{}
	setups, factors, err := segmented(gauge,
		func(int) (*cpState, error) { return setupCampaign(cfg, rep, tr) },
		func(s *cpState, _ int) {
			runtime.GC()
			m0 := readMem()
			first := len(shardTimes)
			ps := timedPasses(cfg.dur/segments, tr, func(op string) {
				s.pass(rep, tr, op, reg, &shardTimes, targetTimes)
			})
			segPasses = append(segPasses, ps)
			passes = append(passes, ps...)
			segShards = append(segShards, shardTimes[first:len(shardTimes):len(shardTimes)])
			spent.add(readMem().since(m0))
			mutantsPerPass, instsPerPass = s.mutantsPerPass, s.instsPerPass
			var p time.Duration
			for _, t := range s.targets {
				p += t.prepare
			}
			for o, n := range s.counts {
				counts[o.String()] += float64(n)
			}
			prepare = append(prepare, ms(p))
			assemble = append(assemble, ms(s.assemble))
		}, nil)
	if err != nil {
		return nil, err
	}

	// Every time is divided by its segment's host factor.
	var allPasses, allShards, allSetups []float64
	for i, f := range factors {
		allSetups = append(allSetups, setups[i]/f)
		allPasses = scaled(allPasses, segPasses[i], f)
		allShards = scaled(allShards, segShards[i], f)
	}
	medPass := median(allPasses) // µs
	rep.e2e["mutants_per_s"] = metric{float64(mutantsPerPass) / medPass * 1e6, "1/s"}
	rep.e2e["guest_mips"] = metric{float64(instsPerPass) / medPass, "1/us"}
	rep.e2e["jobs_per_s"] = metric{float64(len(allShards)) / float64(len(allPasses)) / medPass * 1e6, "1/s"}
	rep.e2e["job_p50_ms"] = metric{quantile(allShards, 0.50), "ms"}
	rep.e2e["job_p99_ms"] = metric{quantile(allShards, 0.99), "ms"}
	rep.e2e["setup_s"] = metric{median(allSetups), "s"}
	rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.hostFactor = median(factors)
	if tr == nil {
		return rep, nil
	}

	l := rep.layer
	l["bench.host_factor"] = metric{rep.hostFactor, "ratio"}
	mutants := float64(mutantsPerPass * len(passes))
	c := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	l["emu.tbs_compiled_per_mutant"] = metric{c(vp.MetricTBsCompiled) / mutants, "count"}
	l["emu.overlay_compiles_per_mutant"] = metric{c(vp.MetricOverlayCompiles) / mutants, "count"}
	hits := c(vp.MetricPoolHits)
	l["emu.pool_hit_ratio"] = metric{ratio(hits, hits+c(vp.MetricPoolMisses)+c(vp.MetricOverlayCompiles)), "ratio"}
	var busy float64 // ms inside CampaignOpt
	for _, xs := range targetTimes {
		for _, x := range xs {
			busy += x
		}
	}
	l["emu.campaign_mips"] = metric{ratio(float64(instsPerPass)*float64(len(passes)), busy*1e3), "1/us"}
	l["vp.restore_bytes_per_mutant"] = metric{c(vp.MetricRestoreBytesTotal) / mutants, "B"}
	l["vp.restore_pages_per_mutant"] = metric{c(vp.MetricRestorePagesTotal) / mutants, "count"}
	// Every shard is full: the plan sizes are multiples of campaignShard.
	l["fault.mutant_us"] = metric{quantile(shardTimes, 0.5) * 1e3 / campaignShard, "us"}
	l["asm.assemble_ms"] = metric{median(assemble), "ms"}
	l["fault.prepare_ms"] = metric{median(prepare), "ms"}
	for _, spec := range campaignSpecs {
		l["fault.campaign_ms."+spec.name] = metric{median(targetTimes[spec.name]), "ms"}
	}
	var classified float64
	for _, n := range counts {
		classified += n
	}
	for _, o := range faultOutcomes {
		l["fault.share."+o] = metric{ratio(counts[o], classified), "ratio"}
	}
	addRuntimeMetrics(l, spent, int(mutants))
	return rep, nil
}
