// Command s4e-bench measures emulation speed (host MIPS) per workload
// per execution engine and writes the results as JSON, so successive
// revisions can track the performance trajectory.
//
// Usage:
//
//	s4e-bench [-o BENCH_emu.json] [-reps 3] [-workloads xtea,crc32]
//	          [-engines superblock,switch] [-cpuprofile FILE]
//
// Exit status: 0 on success, 1 on runtime failure, 2 on usage error.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// selectEngines resolves the -engines flag: a comma-separated subset of
// the names emu.ParseEngine accepts, in the requested order.
func selectEngines(spec string) ([]emu.Engine, error) {
	var out []emu.Engine
	for _, name := range strings.Split(spec, ",") {
		e, err := emu.ParseEngine(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// engineStats is the per-measurement engine counter snapshot recorded
// into the JSON document (cumulative over the reps of one measurement).
type engineStats struct {
	TBsCompiled      uint64  `json:"tbs_compiled"`
	TBsInvalidated   uint64  `json:"tbs_invalidated"`
	JumpCacheHits    uint64  `json:"jump_cache_hits"`
	JumpCacheMisses  uint64  `json:"jump_cache_misses"`
	JumpCacheHitRate float64 `json:"jump_cache_hit_rate"`
	ChainFollows     uint64  `json:"chain_follows"`
	ChainsSevered    uint64  `json:"chains_severed"`
	InstsRetired     uint64  `json:"insts_retired"`
	// Superblock trace counters (zero on the switch engine, omitted).
	TracesFormed      uint64  `json:"traces_formed,omitempty"`
	AvgTraceBlocks    float64 `json:"avg_trace_blocks,omitempty"`
	TraceRuns         uint64  `json:"trace_runs,omitempty"`
	TraceSideExits    uint64  `json:"trace_side_exits,omitempty"`
	TraceSideExitRate float64 `json:"trace_side_exit_rate,omitempty"`
	TracesInvalidated uint64  `json:"traces_invalidated,omitempty"`
	// Platform rewind cost across the measurement's reps (the bench
	// rewinds between reps, so this shows the per-workload restore
	// footprint under the dirty-page machinery).
	Restores     uint64 `json:"restores,omitempty"`
	RestoreBytes uint64 `json:"restore_bytes,omitempty"`
	RestorePages uint64 `json:"restore_pages,omitempty"`
}

// campaignStats is one point on the campaign pool axis: a full fault
// campaign at fixed worker count with the shared translation pool on or
// off, plus the accumulated worker engine counters that explain the
// difference (tbs_compiled drops ~workers× with the pool on).
type campaignStats struct {
	Workload        string  `json:"workload"`
	Engine          string  `json:"engine"`
	Workers         int     `json:"workers"`
	Mutants         int     `json:"mutants"`
	MutantsPerSec   float64 `json:"mutants_per_sec"`
	TBsCompiled     uint64  `json:"tbs_compiled"`
	PoolBlocks      uint64  `json:"pool_blocks"`
	PoolHits        uint64  `json:"pool_hits"`
	OverlayCompiles uint64  `json:"overlay_compiles"`
}

// serviceStats is one point on the analysis-service axis: a burst of
// identical campaign jobs pushed through internal/serve at one queue
// depth, with the cross-job translation-pool cache on or off. Latency
// quantiles come from the service's own obs histogram.
type serviceStats struct {
	Workload   string  `json:"workload"`
	QueueDepth int     `json:"queue_depth"`
	Workers    int     `json:"workers"`
	Jobs       int     `json:"jobs"`
	Mutants    int     `json:"mutants_per_job"`
	JobsPerSec float64 `json:"jobs_per_sec"`
	P50MS      float64 `json:"p50_ms"`
	P99MS      float64 `json:"p99_ms"`
	Shed       int     `json:"shed"` // 429-equivalent rejections the client retried
	PoolHits   uint64  `json:"pool_hits"`
}

// irqStats is one point on the interrupt-response axis (experiment
// E13): the static IRT bound of one interrupt demonstrator against the
// worst service latency the adversarial co-sim observes, and the
// pessimism ratio between them.
type irqStats struct {
	Workload      string  `json:"workload"`
	Engine        string  `json:"engine"`
	Bound         uint64  `json:"bound_cycles"`
	MaxLatency    uint64  `json:"observed_max_cycles"`
	Ratio         float64 `json:"ratio"`
	Samples       int     `json:"samples"`
	Delivered     int     `json:"delivered"`
	Sound         bool    `json:"sound"`
	SamplesPerSec float64 `json:"samples_per_sec"`
}

// Result is the written JSON document.
type Result struct {
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"num_cpu"`
	// GoMaxProcs is the scheduler's actual parallelism cap; num_cpu
	// alone hides a pinned or cgroup-limited run on the campaign and
	// service axes.
	GoMaxProcs int                  `json:"gomaxprocs"`
	Reps       int                  `json:"reps"`
	Workloads  []string             `json:"workloads"`
	MIPS       map[string][]float64 `json:"mips"` // engine -> per-workload MIPS
	// EngineStats mirrors MIPS: engine -> per-workload counters.
	EngineStats map[string][]engineStats `json:"engine_stats"`
	// Campaign is the fault-campaign pool axis ("pool-on"/"pool-off").
	Campaign map[string]campaignStats `json:"campaign,omitempty"`
	// Service is the analysis-service throughput axis, keyed
	// "q<depth>-pool-{on,off}".
	Service map[string]serviceStats `json:"service,omitempty"`
	// IRQ is the interrupt-response axis (E13), keyed by interrupt
	// demonstrator name.
	IRQ map[string]irqStats `json:"irq,omitempty"`
	// AxisSeconds is the wall-clock each axis took end to end, so
	// throughput numbers can be read against the time budget that
	// produced them.
	AxisSeconds map[string]float64 `json:"axis_seconds"`
}

// measure times reps steady-state runs of one workload under an engine
// (platform built once, rewound between runs) and returns the best
// observed MIPS plus the platform for stats inspection.
func measure(w workloads.Workload, engine emu.Engine, reps int) (float64, *vp.Platform, error) {
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		return 0, nil, err
	}
	p, err := vp.New(vp.Config{Sensor: w.Sensor})
	if err != nil {
		return 0, nil, err
	}
	p.Machine.Engine = engine
	if err := p.LoadProgram(prog); err != nil {
		return 0, nil, err
	}
	base := p.Snapshot()
	best := 0.0
	for r := 0; r < reps; r++ {
		p.RestoreReuse(base, prog)
		start := time.Now()
		stop := p.Run(w.Budget)
		d := time.Since(start).Seconds()
		if stop.Reason != emu.StopExit {
			return 0, nil, fmt.Errorf("%s stopped with %v", w.Name, stop)
		}
		if mips := float64(p.Machine.Hart.Instret) / d / 1e6; mips > best {
			best = mips
		}
	}
	return best, p, nil
}

// measureCampaign runs one fault campaign over the workload and returns
// the campaign point for the pool axis. reps campaigns are run and the
// best throughput kept; engine counters are from the best run.
func measureCampaign(w workloads.Workload, workers, mutants, reps int, noPool bool) (campaignStats, error) {
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		return campaignStats{}, err
	}
	tg := &fault.Target{Program: prog, Budget: w.Budget, Sensor: w.Sensor}
	g, err := fault.RunGolden(tg)
	if err != nil {
		return campaignStats{}, err
	}
	end := vp.RAMBase + uint32(len(prog.Bytes))
	// Code bit-flips weigh heavily in the mix on purpose: each one
	// flushes the worker's private cache, so the re-warm path (pool
	// adoption vs recompilation) is what this axis contrasts.
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         7,
		GPRTransient: mutants * 2 / 5,
		MemPermanent: mutants / 5,
		CodeBitflip:  mutants - mutants*2/5 - mutants/5,
		GoldenInsts:  g.Insts,
		CodeStart:    vp.RAMBase, CodeEnd: end,
		DataStart: vp.RAMBase, DataEnd: end,
	})
	cs := campaignStats{
		Workload: w.Name,
		Engine:   tg.Engine.String(),
		Workers:  workers,
		Mutants:  len(plan.Faults),
	}
	for r := 0; r < reps; r++ {
		reg := obs.NewRegistry()
		res, err := fault.CampaignOpt(tg, plan, fault.Options{
			Workers: workers, NoSharedPool: noPool, Metrics: reg,
		})
		if err != nil {
			return campaignStats{}, err
		}
		mps := float64(res.Total) / res.Duration.Seconds()
		if mps > cs.MutantsPerSec {
			cs.MutantsPerSec = mps
			cs.TBsCompiled = reg.Counter(vp.MetricTBsCompiled, "").Value()
			cs.PoolBlocks = uint64(reg.Gauge("s4e_fault_pool_blocks", "").Value())
			cs.PoolHits = reg.Counter(vp.MetricPoolHits, "").Value()
			cs.OverlayCompiles = reg.Counter(vp.MetricOverlayCompiles, "").Value()
		}
	}
	return cs, nil
}

// measureService pushes a burst of identical campaign jobs through an
// in-process analysis service at one queue depth and reports jobs/sec
// plus the p50/p99 execution latency read back from the service's
// latency histogram. A full queue is handled like an HTTP client would
// handle 429: back off briefly and resubmit (counted in Shed).
func measureService(w workloads.Workload, depth, workers, jobs, mutants int, noPool bool) (serviceStats, error) {
	s := serve.New(serve.Config{
		Workers:        workers,
		QueueDepth:     depth,
		DefaultTimeout: 5 * time.Minute,
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // bench teardown
	}()
	spec := serve.FaultSpec{
		Seed:         7,
		GPRTransient: mutants * 2 / 5,
		MemPermanent: mutants / 5,
		CodeBitflip:  mutants - mutants*2/5 - mutants/5,
		Workers:      1, // the service's worker pool is the parallelism
		NoPool:       noPool,
	}
	st := serviceStats{
		Workload: w.Name, QueueDepth: depth, Workers: workers,
		Jobs: jobs, Mutants: mutants,
	}

	start := time.Now()
	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		for {
			js, err := s.Submit(serve.Request{
				Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &spec,
			})
			if errors.Is(err, serve.ErrQueueFull) {
				st.Shed++
				time.Sleep(500 * time.Microsecond)
				continue
			}
			if err != nil {
				return serviceStats{}, err
			}
			ids = append(ids, js.ID)
			break
		}
	}
	for _, id := range ids {
		for {
			js, ok := s.Job(id)
			if !ok {
				return serviceStats{}, fmt.Errorf("service job %s vanished", id)
			}
			if js.State == serve.StateDone {
				break
			}
			if js.State == serve.StateErrored || js.State == serve.StateCancelled {
				return serviceStats{}, fmt.Errorf("service job %s: %s (%s)", id, js.State, js.Error)
			}
			time.Sleep(time.Millisecond)
		}
	}
	elapsed := time.Since(start).Seconds()
	st.JobsPerSec = float64(jobs) / elapsed

	reg := s.Metrics()
	h := reg.Histogram(`s4e_serve_job_seconds{type="fault"}`, "", nil)
	st.P50MS = h.Quantile(0.5) * 1e3
	st.P99MS = h.Quantile(0.99) * 1e3
	st.PoolHits = reg.Counter(`s4e_serve_pool_jobs_total{cache="hit"}`, "").Value()
	return st, nil
}

func main() {
	out := flag.String("o", "BENCH_emu.json", "output JSON file")
	reps := flag.Int("reps", 3, "repetitions per measurement (best is kept)")
	names := flag.String("workloads", "xtea,crc32,fir,matmul,sort,pid",
		"comma-separated workload subset")
	engines := flag.String("engines", emu.EngineList(),
		"comma-separated engine subset for the MIPS axis")
	campWorkload := flag.String("campaign-workload", "pid",
		"workload for the fault-campaign pool axis (empty: skip the campaign axis)")
	campMutants := flag.Int("campaign-mutants", 400, "mutants per campaign measurement")
	campWorkers := flag.Int("campaign-workers", 4, "campaign workers per measurement")
	svcJobs := flag.Int("service-jobs", 16,
		"jobs per analysis-service measurement (0: skip the service axis)")
	svcWorkload := flag.String("service-workload", "xtea", "workload for the service axis")
	svcMutants := flag.Int("service-mutants", 60, "mutants per service campaign job")
	svcWorkers := flag.Int("service-workers", 4, "service worker-pool size")
	irqSamples := flag.Int("irq-samples", 24,
		"adversarial trigger samples per interrupt demonstrator on the irq axis (0: skip the irq axis)")
	metricsPath := flag.String("metrics", "", "write accumulated engine/bus metrics to `file` (.json for JSON, - for stdout, else Prometheus text)")
	tracePath := flag.String("trace", "", "write per-measurement trace events (JSONL) to `file`")
	progress := flag.Bool("progress", false, "print a progress line per measurement to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of all measurements (runtime/pprof) to `file`")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: s4e-bench [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var selected []workloads.Workload
	for _, name := range strings.Split(*names, ",") {
		w, ok := workloads.ByName(strings.TrimSpace(name))
		if !ok {
			fmt.Fprintf(os.Stderr, "s4e-bench: unknown workload %q\n", name)
			os.Exit(2)
		}
		selected = append(selected, w)
	}
	engineAxis, err := selectEngines(*engines)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s4e-bench:", err)
		os.Exit(2)
	}
	stopProfile, err := obs.StartCPUProfile(*cpuProfile)
	if err != nil {
		fatal(err)
	}

	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.NewRegistry()
	}
	var tr *obs.Trace
	var closeTrace func() error
	if *tracePath != "" {
		var err error
		tr, closeTrace, err = obs.NewFileTrace(*tracePath, obs.DefaultRing)
		if err != nil {
			fatal(err)
		}
	}

	res := Result{
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Reps:        *reps,
		MIPS:        map[string][]float64{},
		EngineStats: map[string][]engineStats{},
		AxisSeconds: map[string]float64{},
	}
	for _, w := range selected {
		res.Workloads = append(res.Workloads, w.Name)
	}

	axisStart := time.Now()
	fmt.Printf("%-14s", "program")
	for _, e := range engineAxis {
		fmt.Printf(" %12s", e)
	}
	fmt.Println()
	for i, w := range selected {
		fmt.Printf("%-14s", w.Name)
		for _, e := range engineAxis {
			name := e.String()
			if *progress {
				fmt.Fprintf(os.Stderr, "s4e-bench: measuring %s/%s (%d reps)\n", w.Name, name, *reps)
			}
			best, p, err := measure(w, e, *reps)
			if err != nil {
				fatal(err)
			}
			es := p.Machine.Stats()
			rst := p.RestoreStats()
			res.MIPS[name] = append(res.MIPS[name], best)
			res.EngineStats[name] = append(res.EngineStats[name], engineStats{
				TBsCompiled:       es.TBsCompiled,
				TBsInvalidated:    es.TBsInvalidated,
				JumpCacheHits:     es.JumpCacheHits,
				JumpCacheMisses:   es.JumpCacheMisses,
				JumpCacheHitRate:  es.JumpCacheHitRate(),
				ChainFollows:      es.ChainFollows,
				ChainsSevered:     es.ChainsSevered,
				InstsRetired:      p.Machine.Hart.Instret,
				TracesFormed:      es.TracesFormed,
				AvgTraceBlocks:    es.AvgTraceBlocks(),
				TraceRuns:         es.TraceRuns,
				TraceSideExits:    es.TraceSideExits,
				TraceSideExitRate: es.TraceSideExitRate(),
				TracesInvalidated: es.TracesInvalidated,
				Restores:          rst.Restores,
				RestoreBytes:      rst.RestoreBytes,
				RestorePages:      rst.RestorePages,
			})
			p.RecordStats(reg)
			tr.Emit("measurement", "workload", w.Name, "mode", name, "mips", best,
				"jump_cache_hit_rate", es.JumpCacheHitRate())
			fmt.Printf(" %12.1f", best)
		}
		// Geometric means need every workload; print the row ratio now.
		if c, s := res.MIPS["superblock"], res.MIPS["switch"]; len(c) > i && len(s) > i {
			fmt.Printf("   %.2fx", c[i]/s[i])
		}
		fmt.Println()
	}
	if a, b := res.MIPS["superblock"], res.MIPS["switch"]; len(a) == len(selected) && len(b) == len(selected) {
		fmt.Printf("geomean superblock/switch: %.2fx\n", geomeanRatio(a, b))
	}
	res.AxisSeconds["mips"] = time.Since(axisStart).Seconds()

	// Campaign pool axis: same plan, shared translation pool on vs off.
	axisStart = time.Now()
	if *campWorkload != "" {
		w, ok := workloads.ByName(*campWorkload)
		if !ok {
			fmt.Fprintf(os.Stderr, "s4e-bench: unknown campaign workload %q\n", *campWorkload)
			os.Exit(2)
		}
		res.Campaign = map[string]campaignStats{}
		for _, mode := range []struct {
			name   string
			noPool bool
		}{
			{"pool-on", false},
			{"pool-off", true},
		} {
			if *progress {
				fmt.Fprintf(os.Stderr, "s4e-bench: campaign %s/%s (%d mutants, %d workers, %d reps)\n",
					w.Name, mode.name, *campMutants, *campWorkers, *reps)
			}
			cs, err := measureCampaign(w, *campWorkers, *campMutants, *reps, mode.noPool)
			if err != nil {
				fatal(err)
			}
			res.Campaign[mode.name] = cs
			tr.Emit("campaign-measurement", "mode", mode.name, "mutants_per_sec", cs.MutantsPerSec,
				"tbs_compiled", cs.TBsCompiled)
			fmt.Printf("campaign %-19s %s: %8.0f mutants/sec  tbs_compiled=%-6d pool_hits=%-6d overlay=%d\n",
				mode.name, w.Name, cs.MutantsPerSec, cs.TBsCompiled, cs.PoolHits, cs.OverlayCompiles)
		}
		on, off := res.Campaign["pool-on"], res.Campaign["pool-off"]
		if on.TBsCompiled > 0 && off.MutantsPerSec > 0 {
			fmt.Printf("campaign pool-on/pool-off: %.2fx mutants/sec, %.1fx fewer TBs compiled\n",
				on.MutantsPerSec/off.MutantsPerSec,
				float64(off.TBsCompiled)/float64(on.TBsCompiled))
		}
	}
	res.AxisSeconds["campaign"] = time.Since(axisStart).Seconds()

	// Service axis: the same campaign work pushed through internal/serve
	// as concurrent jobs, across queue depths, pool sharing on vs off.
	axisStart = time.Now()
	if *svcJobs > 0 {
		w, ok := workloads.ByName(*svcWorkload)
		if !ok {
			fmt.Fprintf(os.Stderr, "s4e-bench: unknown service workload %q\n", *svcWorkload)
			os.Exit(2)
		}
		res.Service = map[string]serviceStats{}
		for _, depth := range []int{1, 8, 64} {
			for _, mode := range []struct {
				name   string
				noPool bool
			}{{"pool-on", false}, {"pool-off", true}} {
				key := fmt.Sprintf("q%d-%s", depth, mode.name)
				if *progress {
					fmt.Fprintf(os.Stderr, "s4e-bench: service %s (%d jobs, %d reps)\n",
						key, *svcJobs, *reps)
				}
				var best serviceStats
				for r := 0; r < *reps; r++ {
					ss, err := measureService(w, depth, *svcWorkers, *svcJobs, *svcMutants, mode.noPool)
					if err != nil {
						fatal(err)
					}
					if ss.JobsPerSec > best.JobsPerSec {
						best = ss
					}
				}
				res.Service[key] = best
				tr.Emit("service-measurement", "mode", key, "jobs_per_sec", best.JobsPerSec,
					"p99_ms", best.P99MS)
				fmt.Printf("service %-13s %s: %7.1f jobs/sec  p50=%6.1fms p99=%6.1fms shed=%-4d pool_hits=%d\n",
					key, w.Name, best.JobsPerSec, best.P50MS, best.P99MS, best.Shed, best.PoolHits)
			}
		}
		for _, depth := range []int{1, 8, 64} {
			on := res.Service[fmt.Sprintf("q%d-pool-on", depth)]
			off := res.Service[fmt.Sprintf("q%d-pool-off", depth)]
			if off.JobsPerSec > 0 {
				fmt.Printf("service q%-2d pool-on/pool-off: %.2fx jobs/sec\n",
					depth, on.JobsPerSec/off.JobsPerSec)
			}
		}
	}
	res.AxisSeconds["service"] = time.Since(axisStart).Seconds()

	// IRQ axis (E13): static IRT bound vs adversarially measured worst
	// interrupt-service latency per demonstrator, on the superblock
	// engine under the edge-small profile (the s4e-qta -irq defaults).
	axisStart = time.Now()
	if *irqSamples > 0 {
		res.IRQ = map[string]irqStats{}
		prof := timing.EdgeSmall()
		for _, w := range workloads.Interrupt() {
			if *progress {
				fmt.Fprintf(os.Stderr, "s4e-bench: irq %s (%d samples)\n", w.Name, *irqSamples)
			}
			start := time.Now()
			r, err := flow.RunIRT(context.Background(), w, prof, flow.IRTConfig{
				Engine: emu.EngineSuperblock, Samples: *irqSamples, Seed: 1,
			})
			if err != nil {
				fatal(err)
			}
			if !r.Sound {
				fatal(fmt.Errorf("irq axis: %s bound %d undercut by observed %d",
					w.Name, r.Static.Bound, r.Measured.MaxLatency))
			}
			st := irqStats{
				Workload: w.Name, Engine: emu.EngineSuperblock.String(),
				Bound: r.Static.Bound, MaxLatency: r.Measured.MaxLatency,
				Ratio: r.Ratio, Samples: *irqSamples, Delivered: r.Measured.Delivered,
				Sound:         r.Sound,
				SamplesPerSec: float64(*irqSamples) / time.Since(start).Seconds(),
			}
			res.IRQ[w.Name] = st
			tr.Emit("irq-measurement", "workload", w.Name, "bound", st.Bound,
				"observed_max", st.MaxLatency, "ratio", st.Ratio)
			fmt.Printf("irq %-12s bound %6d cycles  observed max %6d  ratio %.2f  (%d/%d delivered)\n",
				w.Name, st.Bound, st.MaxLatency, st.Ratio, st.Delivered, st.Samples)
		}
	}
	res.AxisSeconds["irq"] = time.Since(axisStart).Seconds()
	if err := stopProfile(); err != nil {
		fatal(err)
	}

	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("wrote", *out)

	if reg != nil {
		if err := reg.WriteFile(*metricsPath); err != nil {
			fatal(err)
		}
	}
	if closeTrace != nil {
		if err := closeTrace(); err != nil {
			fatal(err)
		}
	}
}

// geomeanRatio is the geometric mean of a[i]/b[i].
func geomeanRatio(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	prod := 1.0
	for i := range a {
		prod *= a[i] / b[i]
	}
	return math.Pow(prod, 1/float64(len(a)))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "s4e-bench:", err)
	os.Exit(1)
}
