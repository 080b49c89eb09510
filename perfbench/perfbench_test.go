package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// shortConfig is a run short enough for a unit test.
func shortConfig(t *testing.T) runConfig {
	t.Helper()
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: 1, dur: 200 * time.Millisecond, digests: d, jobs: 60}
}

// A short run of each workload emits every named metric with its unit,
// untraced and traced, and passes its correctness gate.
func TestShortRunEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := shortConfig(t)
			for _, traced := range []bool{false, true} {
				res, det, err := measure(w, cfg, traced, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d: %v",
						traced, res.Correct, res.Attempted, res.Failed, det.Failures)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("traced=%v: metric %s = %+v, want unit %s", traced, d.name, m, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced {
					if _, err := os.Stat(det.Spans); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			}
		})
	}
}

// Each workload measures the per-layer metrics of the layers it reaches;
// only the others may read 0.
func TestTracedRunMeasuresOwnLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	own := map[string][]string{
		"firmware": {"emu.run_us", "emu.mips.unit", "emu.mips.xtea", "emu.mips.pid_timer", "emu.mips.torture",
			"emu.mips.engine.threaded", "emu.translate_pass_ms", "vp.restore_us", "asm.assemble_ms", "vp.build_ms"},
		"campaign": {"emu.tbs_compiled_per_mutant", "emu.pool_hit_ratio", "emu.campaign_mips",
			"vp.restore_bytes_per_mutant", "fault.prepare_ms", "fault.mutant_us", "fault.campaign_ms.pid",
			"fault.campaign_ms.dma_stream", "fault.share.masked", "fault.share.latency-viol"},
		"service": {"serve.submit_us", "serve.queue_wait_p50_ms", "serve.exec_ms.fault", "serve.exec_ms.irt",
			"serve.busy_share.run", "serve.bin_cache_hit_ratio", "client.observe_lag_ms",
			"runtime.page_faults_per_op"},
	}
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := w.run(shortConfig(t), newTracer())
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range own[w.name] {
				if rep.layer[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.layer[name].Value)
				}
			}
		})
	}
}

// Every input a seed can draw has a recorded result: every fixed and
// torture program under every profile, every campaign plan variant.
func TestDigestsCoverEveryInput(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	progs := fixedPrograms()
	for i := 0; i < torturePool; i++ {
		progs = append(progs, tortureProgram(i))
	}
	var want []string
	for _, p := range progs {
		for _, mk := range fwProfiles {
			want = append(want, p.name+"/"+mk().ProfileName)
		}
	}
	for _, k := range want {
		if _, ok := d.Firmware[k]; !ok {
			t.Errorf("no firmware digest for %s", k)
		}
	}
	if len(d.Firmware) != len(want) {
		t.Errorf("%d firmware digests, want %d", len(d.Firmware), len(want))
	}
	for _, spec := range campaignSpecs {
		for v := 0; v < planVariants; v++ {
			if _, ok := d.Campaign[spec.name+"/"+strconv.Itoa(v)]; !ok {
				t.Errorf("no campaign digest for %s/%d", spec.name, v)
			}
		}
	}
	if len(d.Campaign) != len(campaignSpecs)*planVariants {
		t.Errorf("%d campaign digests, want %d", len(d.Campaign), len(campaignSpecs)*planVariants)
	}
}

// Every plan variant of the latency-budgeted campaign has mutants that
// violate the budget, so every seed's outcome digest covers the
// latency classification.
func TestEveryLatencyVariantViolates(t *testing.T) {
	for _, spec := range campaignSpecs {
		if spec.latency == 0 {
			continue
		}
		tg, _, err := prepareTarget(spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		for v, plan := range tg.plans {
			res, err := fault.CampaignOpt(tg.tg, plan, fault.Options{Workers: 1, Golden: tg.golden, Pool: tg.pool})
			if err != nil {
				t.Fatal(err)
			}
			if res.ByOutcome[fault.LatencyViol] == 0 {
				t.Errorf("%s: no latency violation: %v", tg.key(v), res.ByOutcome)
			}
		}
	}
}

// A digest that differs from the simulated result trips the gate, on
// any seed: a kernel's, a torture program's and a campaign's.
func TestPerturbedDigestFails(t *testing.T) {
	cfg := shortConfig(t)
	cfg.seed = 7
	programs := firmwarePrograms(cfg.seed)
	rep := &report{}
	if _, err := setupFirmware(programs, cfg.digests, defaultEngine, rep, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := setupCampaign(cfg, rep, nil); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 {
		t.Fatalf("recorded digests fail: %v", rep.failures)
	}

	bad := cfg
	bad.digests = digests{Firmware: map[string][2]uint64{}, Campaign: map[string]string{}}
	for k, v := range cfg.digests.Firmware {
		bad.digests.Firmware[k] = v
	}
	for k, v := range cfg.digests.Campaign {
		bad.digests.Campaign[k] = v
	}
	torture := programs[len(programs)-1].name + "/unit"
	pid := "pid/" + strconv.Itoa(firstVariant(cfg.seed))
	for _, k := range []string{"crc32/edge-small", torture} {
		rec := bad.digests.Firmware[k]
		rec[1]++ // one cycle more
		bad.digests.Firmware[k] = rec
	}
	bad.digests.Campaign[pid] = strings.Repeat("0", 64)

	rep = &report{}
	if _, err := setupFirmware(programs, bad.digests, defaultEngine, rep, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := setupCampaign(bad, rep, nil); err != nil {
		t.Fatal(err)
	}
	if rep.failed != 3 {
		t.Fatalf("perturbed digests: %d failures, want 3: %v", rep.failed, rep.failures)
	}
	joined := strings.Join(rep.failures, "\n")
	for _, want := range []string{"crc32/edge-small", torture, pid + ": outcome digest"} {
		if !strings.Contains(joined, want) {
			t.Errorf("failures do not name %q:\n%s", want, joined)
		}
	}
}

// The same seed generates identical inputs: torture sources, fault
// plans and their order, and the service request list. Other seeds draw
// other torture programs and requests, and start the plan rotation at
// another variant.
func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(firmwarePrograms(7), firmwarePrograms(7)) {
		t.Error("torture programs differ for one seed")
	}
	if reflect.DeepEqual(firmwarePrograms(7), firmwarePrograms(8)) {
		t.Error("torture programs do not depend on the seed")
	}

	plans := func(seed int64) []any {
		cfg := shortConfig(t)
		cfg.seed = seed
		s, err := setupCampaign(cfg, &report{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []any
		for _, tg := range s.targets {
			out = append(out, tg.plans)
		}
		return append(out, s.next)
	}
	if !reflect.DeepEqual(plans(7), plans(7)) {
		t.Error("fault plans differ for one seed")
	}
	first := map[int]bool{}
	for seed := int64(1); seed <= 20; seed++ {
		first[firstVariant(seed)] = true
	}
	if len(first) < 2 {
		t.Error("the first plan variant does not depend on the seed")
	}

	insts, err := goldenInsts()
	if err != nil {
		t.Fatal(err)
	}
	if segmentSeed(7, 3) != segmentSeed(7, 3) || segmentSeed(7, 3) == segmentSeed(7, 4) {
		t.Error("segment seeds are not one per segment")
	}
	reqs := serviceRequests(7, 200, insts)
	if !reflect.DeepEqual(reqs, serviceRequests(7, 200, insts)) {
		t.Error("service requests differ for one seed")
	}
	if reflect.DeepEqual(reqs, serviceRequests(8, 200, insts)) {
		t.Error("service requests do not depend on the seed")
	}
	types := map[string]int{}
	for _, r := range reqs {
		types[r.req.Type]++
	}
	for _, typ := range jobTypes {
		if types[typ] == 0 {
			t.Errorf("no %s job in the request list", typ)
		}
	}
	if types["fault"] != 60 || types["run"] != 40 {
		t.Errorf("job mix %v, want 60 fault and 40 run jobs in 200", types)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range benchWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, want %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0: 1, 0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := quantile(append([]float64(nil), xs...), q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

// A full sample buffer keeps a systematic sample: every second
// observation, then every fourth.
func TestSampleBufDecimates(t *testing.T) {
	b := newSampleBuf(4)
	for v := 1; v <= 8; v++ {
		b.add(float64(v))
	}
	if got, want := b.buf[:b.n], []float32{2, 4, 6, 8}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	for v := 9; v <= 12; v++ {
		b.add(float64(v))
	}
	if got, want := b.buf[:b.n], []float32{4, 8, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want %v", got, want)
	}
	if got := b.quantile(0.5); got != 8 {
		t.Errorf("median %v, want 8", got)
	}
}

var sink uint64

// spin keeps the calling thread busy for d of its own CPU time.
func spin(d time.Duration) {
	for t0 := threadCPU(); threadCPU()-t0 < d; {
	}
}

// The process CPU clock is exact for another thread that is running
// while it is read, not only up to that thread's last scheduler tick
// (4 ms at 250 Hz): across 1 ms sleeps of the reading thread, a
// spinning thread's time shows in the readings. A tick-granular clock
// would read most of these intervals as zero.
func TestProcessCPUCountsRunningThreads(t *testing.T) {
	stop := make(chan struct{})
	busy := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		close(busy)
		// No system calls while spinning: a thread's own clock
		// reads bring its runtime up to date.
		x := uint64(1)
		for {
			select {
			case <-stop:
				sink = x
				return
			default:
				for i := 0; i < 1<<16; i++ {
					x = x*6364136223846793005 + 1442695040888963407
				}
			}
		}
	}()
	<-busy
	defer close(stop)
	var deltas []float64
	for i := 0; i < 21; i++ {
		c0 := processCPU()
		time.Sleep(time.Millisecond)
		deltas = append(deltas, float64(processCPU()-c0))
	}
	if med := time.Duration(median(deltas)); med < 500*time.Microsecond {
		t.Errorf("median process CPU %v over 1 ms sleeps with another thread spinning", med)
	}
}

// The thread clock counts only the calling thread: sleeping adds
// nothing to it.
func TestThreadCPUExcludesSleep(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(30 * time.Millisecond)
	if got := threadCPU() - c0; got > 5*time.Millisecond {
		t.Errorf("thread CPU advanced %v while asleep", got)
	}
	c0 = threadCPU()
	spin(10 * time.Millisecond)
	if got := threadCPU() - c0; got < 10*time.Millisecond || got > 20*time.Millisecond {
		t.Errorf("thread CPU advanced %v over a 10 ms spin", got)
	}
}
