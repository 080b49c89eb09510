package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/flow"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// The service workload: an in-process serve.Server with one worker,
// driven as a closed loop by one client goroutine that keeps two jobs
// outstanding. The seeded job list covers all seven job types over the
// kernels and demonstrators; one submission in five is a freshly edited
// binary, so the server's per-binary cache both hits and misses. The
// run length is a fixed job count, not a fixed time, so a faster server
// does not cache more binaries. Each segment of a run drives its share
// of the jobs, drawn from its own seed, through a fresh server.
//
// The mix is synthetic: there is no recorded service traffic to replay.
// Its weights and job sizes are set so that the busy time splits the
// way the prototype service's did, fault jobs about 80% and wcet under
// 5%; README.md gives the split it measures.

// jobTypes are the service's job types, in the order metrics list them.
var jobTypes = []string{"run", "fault", "qta", "wcet", "lint", "subset", "irt"}

// jobBlock is one block of the job mix, shuffled per block by the seed:
// fault jobs three times, run twice, every analysis once. Campaigns and
// plain runs are what the service is mostly asked for; the analyses are
// each asked for once a block so that every one is measured.
var jobBlock = []string{"fault", "fault", "fault", "run", "run", "qta", "wcet", "lint", "subset", "irt"}

const (
	// jobsPerSecond sizes the fixed job count: --seconds times this,
	// and at least minServiceJobs, so that p99 has ten samples beyond it.
	// It is about the rate the service sustains on a 2-core host, so a
	// run takes about --seconds there.
	jobsPerSecond  = 180
	minServiceJobs = 1000

	outstanding  = 2 // jobs the client keeps in flight
	freshEvery   = 5 // every fifth submission is a freshly edited binary
	pollInterval = 200 * time.Microsecond

	// Fault jobs: plan size per campaign, and every third one sharded.
	// 80 mutants make a campaign about five times a plain run's cost.
	svcGPR, svcMem, svcCode = 80, 40, 40
	svcShards               = 2
	// svcLatencyBudget is the ISR fault jobs' latency budget in cycles,
	// well above the demonstrators' fault-free latencies on the
	// service's edge-small profile.
	svcLatencyBudget = 200
	// irtSamples is the adversarial trigger count of an irt job; with
	// 4, irt jobs took a quarter of the busy time.
	irtSamples = 2

	// warmupSeed draws the warm-up jobs' fault plans and triggers: the
	// warm-up is set-up, the same on every seed.
	warmupSeed = 1
)

// svcRequest is one planned submission and what its result must show.
type svcRequest struct {
	req    serve.Request
	expect uint32 // run: the checksum
	plan   int    // fault: the plan size
}

// jobPrograms lists, per job type, the programs it runs over: the
// analyses take the batch kernels, run takes every program, fault the
// kernels plus the ISR-targeted demonstrators cheap enough to campaign,
// and irt the demonstrators.
func jobPrograms() map[string][]workloads.Workload {
	kernels := workloads.All()
	demos := workloads.Interrupt()
	return map[string][]workloads.Workload{
		"run":   append(append([]workloads.Workload(nil), kernels...), demos...),
		"fault": append(append([]workloads.Workload(nil), kernels...), demos[1], demos[2]),
		"qta":   kernels, "wcet": kernels, "lint": kernels, "subset": kernels,
		"irt": demos,
	}
}

// newRequest builds one submission of typ over w. insts holds each
// program's golden instruction count under the service's default
// profile; fault jobs budget budgetFactor times that per mutant.
func newRequest(typ string, w workloads.Workload, fresh, sharded bool, rng *rand.Rand, insts map[string]uint64) svcRequest {
	src := w.Source
	if fresh {
		// A data word after the program: behaviour unchanged, hash new.
		src += fmt.Sprintf("\n\t.align 2\n\t.word 0x%08x\n", rng.Uint32())
	}
	r := svcRequest{req: serve.Request{
		Type: typ, Source: src, Budget: w.Budget, Bounds: w.LoopBounds,
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: string(w.UARTIn),
	}, expect: w.Expect}
	switch typ {
	case "fault":
		spec := &serve.FaultSpec{Seed: rng.Int63(), GPRTransient: svcGPR, MemPermanent: svcMem, CodeBitflip: svcCode}
		if sharded {
			spec.Shards = svcShards
		}
		if w.Handler != "" {
			spec.ISRHandler = w.Handler
			spec.LatencyBudget = svcLatencyBudget
		}
		r.req.Budget = budgetFactor * insts[w.Name]
		r.req.Fault = spec
		r.plan = svcGPR + svcMem + svcCode
	case "irt":
		r.req.IRQ = &serve.IRQSpec{Samples: irtSamples, Seed: rng.Uint64()}
		if fresh {
			r.req.IRQ.Handler, r.req.IRQ.Expect = w.Handler, w.Expect
		} else {
			// A named demonstrator brings its own source and stimuli.
			r.req.IRQ.Workload = w.Name
			r.req.Source, r.req.Sensor, r.req.Stream, r.req.UARTIn = "", nil, nil, ""
		}
	}
	return r
}

// serviceRequests builds a timed job list of n jobs for a seed: blocks of
// jobBlock shuffled by the seed, every freshEvery-th submission a
// freshly edited binary, every third fault job sharded.
func serviceRequests(seed int64, n int, insts map[string]uint64) []svcRequest {
	rng := rand.New(rand.NewSource(seed))
	// Each job type cycles through its programs in a seeded order, so
	// every program gets the same share of each type on every seed.
	programs := jobPrograms()
	for _, typ := range jobTypes {
		ws := append([]workloads.Workload(nil), programs[typ]...)
		rng.Shuffle(len(ws), func(i, j int) { ws[i], ws[j] = ws[j], ws[i] })
		programs[typ] = ws
	}
	next := map[string]int{}
	var block []string
	out := make([]svcRequest, 0, n)
	for i := 0; i < n; i++ {
		if len(block) == 0 {
			block = append(block, jobBlock...)
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		typ := block[0]
		block = block[1:]
		ws := programs[typ]
		w := ws[next[typ]%len(ws)]
		next[typ]++
		out = append(out, newRequest(typ, w, i%freshEvery == freshEvery-1, typ == "fault" && next[typ]%3 == 0, rng, insts))
	}
	return out
}

// warmupRequests is one job of every type over every program it takes,
// unsharded and unedited: after it, the server's per-binary cache holds
// every program the timed list submits unedited.
func warmupRequests(seed int64, insts map[string]uint64) []svcRequest {
	rng := rand.New(rand.NewSource(seed))
	programs := jobPrograms()
	var out []svcRequest
	for _, typ := range jobTypes {
		for _, w := range programs[typ] {
			out = append(out, newRequest(typ, w, false, false, rng, insts))
		}
	}
	return out
}

// goldenInsts runs every kernel and demonstrator once under the
// service's default profile (edge-small) and returns its instruction count.
func goldenInsts() (map[string]uint64, error) {
	out := map[string]uint64{}
	for _, w := range append(workloads.All(), workloads.Interrupt()...) {
		p, err := vp.New(vp.Config{
			Profile: timing.EdgeSmall(), RAMSize: fwRAM,
			Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		})
		if err != nil {
			return nil, err
		}
		if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		p.Run(w.Budget)
		out[w.Name] = p.Machine.Hart.Instret
	}
	return out, nil
}

// svcState is a set-up service workload.
type svcState struct {
	srv  *serve.Server
	reqs []svcRequest
}

// segmentSeed is the seed segment seg of a run draws its jobs from.
func segmentSeed(seed int64, seg int) int64 {
	rng := rand.New(rand.NewSource(seed))
	for ; seg > 0; seg-- {
		rng.Int63()
	}
	return rng.Int63()
}

// setupService builds the job list of a segment and a server, and warms
// the server with the warm-up list.
func setupService(seed int64, n int, rep *report) (*svcState, error) {
	insts, err := goldenInsts()
	if err != nil {
		return nil, err
	}
	s := &svcState{
		srv:  serve.New(serve.Config{Workers: 1, Metrics: obs.NewRegistry()}),
		reqs: serviceRequests(seed, n, insts),
	}
	s.drive(warmupRequests(warmupSeed, insts), rep, nil, nil)
	return s, nil
}

// jobSample is one completed job as the client saw it.
type jobSample struct {
	typ      string
	st       serve.Status
	submit   time.Duration // the Submit call
	observed time.Time     // when the client saw the terminal state
	// latency is the process CPU time from just before the Submit call
	// to when the client saw the terminal state.
	latency time.Duration
	mutants int     // fault jobs: mutants classified
	insts   float64 // guest instructions (see runService)
}

// pendingJob is a submitted job the client has not yet seen finish.
type pendingJob struct {
	idx    int
	id     string
	submit time.Duration
	cpu    time.Duration // process CPU time before the Submit call
}

// drive submits reqs in order as a closed loop with `outstanding` jobs
// in flight, polling for completion, and checks every result. samples,
// when non-nil, receives each completed job, with its latency on the
// process CPU clock.
func (s *svcState) drive(reqs []svcRequest, rep *report, tr *tracer, samples *[]jobSample) {
	var pending []pendingJob
	next, done := 0, 0
	for done < len(reqs) {
		for len(pending) < outstanding && next < len(reqs) {
			var cpu time.Duration
			if samples != nil {
				cpu = processCPU()
			}
			sp := tr.begin("serve.submit", "")
			t0 := time.Now()
			st, err := s.srv.Submit(reqs[next].req)
			d := time.Since(t0)
			tr.end(sp)
			if tr != nil {
				tr.spans[sp].Op = st.ID
			}
			if err != nil {
				rep.attempted++
				rep.fail("submission %d (%s): %v", next, reqs[next].req.Type, err)
				done++
			} else {
				pending = append(pending, pendingJob{next, st.ID, d, cpu})
			}
			next++
		}
		progressed := false
		for i := 0; i < len(pending); {
			st, res, ok := s.srv.Result(pending[i].id)
			if ok && st.State != serve.StateDone && st.State != serve.StateErrored && st.State != serve.StateCancelled {
				i++
				continue
			}
			now := time.Now()
			var cpu time.Duration
			if samples != nil {
				cpu = processCPU()
			}
			pj := pending[i]
			pending = append(pending[:i], pending[i+1:]...)
			done++
			progressed = true
			rep.attempted++
			if !ok {
				rep.fail("job %s vanished", pj.id)
				continue
			}
			s.check(reqs[pj.idx], st, res, rep)
			if samples != nil {
				js := jobSample{typ: reqs[pj.idx].req.Type, st: st, submit: pj.submit, observed: now, latency: cpu - pj.cpu}
				switch v := res.(type) {
				case serve.FaultResult:
					js.mutants = v.Total
					js.insts = float64(v.Total) * float64(v.GoldenInst)
				case serve.RunResult:
					js.insts = float64(v.Insts)
				case serve.QTAResult:
					js.insts = float64(v.Insts)
				}
				*samples = append(*samples, js)
			}
			if tr != nil && st.Started != nil && st.Finished != nil {
				j := tr.add("client.job", st.ID, st.Submitted, now, -1)
				tr.add("serve.queue", st.ID, st.Submitted, *st.Started, j)
				tr.add("serve.exec."+st.Type, st.ID, *st.Started, *st.Finished, j)
				tr.add("client.observe", st.ID, *st.Finished, now, j)
			}
		}
		if !progressed {
			time.Sleep(pollInterval)
		}
	}
}

// check is the service's correctness gate for one finished job.
func (s *svcState) check(r svcRequest, st serve.Status, res any, rep *report) {
	if st.State != serve.StateDone {
		rep.fail("%s job %s: %s: %s", r.req.Type, st.ID, st.State, st.Error)
		return
	}
	if st.Attempts != 1 {
		rep.fail("%s job %s: retried (%d attempts)", r.req.Type, st.ID, st.Attempts)
		return
	}
	var bad string
	switch v := res.(type) {
	case serve.RunResult:
		if v.Reason != "exit" || v.Code != r.expect {
			bad = fmt.Sprintf("%s code 0x%x, want exit 0x%x", v.Reason, v.Code, r.expect)
		}
	case serve.FaultResult:
		if v.Total != r.plan || v.ByOutcome["errored"] != 0 || v.Errors != "" {
			bad = fmt.Sprintf("%d mutants of %d, %d errored %s", v.Total, r.plan, v.ByOutcome["errored"], v.Errors)
		}
	case serve.QTAResult:
		if !v.Sound || v.StaticWCET < v.QTATime || v.QTATime < v.Dynamic || v.StopReason != "exit" {
			bad = fmt.Sprintf("unsound chain: static %d, qta %d, dynamic %d, %s", v.StaticWCET, v.QTATime, v.Dynamic, v.StopReason)
		}
	case serve.WCETResult:
		if v.WCET == 0 {
			bad = "zero bound"
		}
	case *flow.IRTResult:
		if !v.Sound {
			bad = fmt.Sprintf("unsound IRT bound (ratio %.2f)", v.Ratio)
		}
	case serve.LintResult, serve.SubsetResult:
	default:
		bad = fmt.Sprintf("unexpected result %T", res)
	}
	if bad != "" {
		rep.fail("%s job %s: %s", r.req.Type, st.ID, bad)
	}
}

func runService(cfg runConfig, tr *tracer) (*report, error) {
	rep := &report{e2e: map[string]metric{}, layer: map[string]metric{}}
	n := cfg.jobs
	if n == 0 {
		n = max(minServiceJobs, int(jobsPerSecond*cfg.dur.Seconds()))
	}
	var (
		samples       = make([]jobSample, 0, n)
		segFirst      []int           // by segment: its first sample
		segCPU        []time.Duration // by segment: process CPU time of its timed phase
		spent         memSample
		hits, misses  float64
		retries, shed float64
	)
	gauge := &hostGauge{}
	setups, factors, err := segmented(gauge,
		func(seg int) (*svcState, error) {
			return setupService(segmentSeed(cfg.seed, seg), (seg+1)*n/segments-seg*n/segments, rep)
		},
		func(s *svcState, _ int) {
			reg := s.srv.Metrics()
			counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
			hit0, miss0 := counter(poolJobs("hit")), counter(poolJobs("miss"))
			retries0, shed0 := counter("s4e_serve_retries_total"), counter("s4e_serve_shed_total")
			runtime.GC()
			m0 := readMem()
			segFirst = append(segFirst, len(samples))
			cpu0 := processCPU()
			s.drive(s.reqs, rep, tr, &samples)
			segCPU = append(segCPU, processCPU()-cpu0)
			spent.add(readMem().since(m0))
			hits += counter(poolJobs("hit")) - hit0
			misses += counter(poolJobs("miss")) - miss0
			retries += counter("s4e_serve_retries_total") - retries0
			shed += counter("s4e_serve_shed_total") - shed0
		},
		func(s *svcState) error { return s.srv.Shutdown(context.Background()) })
	if err != nil {
		return nil, err
	}

	// Every time is divided by its segment's host factor.
	segEnd := func(i int) int {
		if i+1 < len(segFirst) {
			return segFirst[i+1]
		}
		return len(samples)
	}
	var (
		lat, allSetups []float64
		secs           float64 // CPU seconds
		mutants, insts float64
	)
	for i, f := range factors {
		allSetups = append(allSetups, setups[i]/f)
		secs += segCPU[i].Seconds() / f
		for _, js := range samples[segFirst[i]:segEnd(i)] {
			// Guest work: what run and qta jobs retired, plus each
			// campaign's mutants times its golden run's length (the
			// fault API does not report what each mutant retired).
			mutants += float64(js.mutants)
			insts += js.insts
			if js.st.Started != nil && js.st.Finished != nil {
				lat = append(lat, ms(js.latency)/f)
			}
		}
	}

	var wait, lag, submit []float64
	exec := map[string][]float64{}
	for _, js := range samples {
		if js.st.Started == nil || js.st.Finished == nil {
			continue
		}
		wait = append(wait, ms(js.st.Started.Sub(js.st.Submitted)))
		exec[js.typ] = append(exec[js.typ], ms(js.st.Finished.Sub(*js.st.Started)))
		lag = append(lag, ms(js.observed.Sub(*js.st.Finished)))
		submit = append(submit, us(js.submit))
	}
	rep.e2e["jobs_per_s"] = metric{float64(len(samples)) / secs, "1/s"}
	rep.e2e["job_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	rep.e2e["job_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	rep.e2e["mutants_per_s"] = metric{mutants / secs, "1/s"}
	rep.e2e["guest_mips"] = metric{insts / secs / 1e6, "1/us"}
	rep.e2e["setup_s"] = metric{median(allSetups), "s"}
	rep.e2e["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	rep.hostFactor = median(factors)
	if tr == nil {
		return rep, nil
	}

	l := rep.layer
	l["bench.host_factor"] = metric{rep.hostFactor, "ratio"}
	l["serve.submit_us"] = metric{median(submit), "us"}
	l["serve.queue_wait_p50_ms"] = metric{quantile(wait, 0.50), "ms"}
	l["serve.queue_wait_p99_ms"] = metric{quantile(wait, 0.99), "ms"}
	var busy float64
	for _, xs := range exec {
		for _, x := range xs {
			busy += x
		}
	}
	for _, t := range jobTypes {
		var sum float64
		for _, x := range exec[t] {
			sum += x
		}
		l["serve.exec_ms."+t] = metric{median(exec[t]), "ms"}
		l["serve.busy_share."+t] = metric{ratio(sum, busy), "ratio"}
	}
	l["serve.bin_cache_hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	l["serve.retries"] = metric{retries, "count"}
	l["serve.shed"] = metric{shed, "count"}
	l["client.observe_lag_ms"] = metric{median(lag), "ms"}
	addRuntimeMetrics(l, spent, len(samples))
	return rep, nil
}

// poolJobs names the server's per-binary cache counter.
func poolJobs(outcome string) string {
	return fmt.Sprintf("s4e_serve_pool_jobs_total{cache=%q}", outcome)
}
