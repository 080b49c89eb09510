// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads from one process through the public functions of the
// asm, vp, emu, fault and serve packages:
//
//   - firmware: warm steady-state guest execution of every kernel,
//     interrupt demonstrator and a few seeded torture programs;
//   - campaign: single-worker fault campaigns on the s4e-fault path;
//   - service: an in-process analysis service under a closed-loop
//     client keeping two jobs outstanding.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload firmware --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 the run is made
// twice, untraced and then traced, and the metrics are the per-layer
// ones from the traced run plus the tracing overhead. The line before
// it carries the environment stamp and the failure details. See
// README.md for the workloads, the metrics and the estimators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is one measured run of a workload.
type report struct {
	attempted, failed int
	failures          []string // the first few failures, for the detail line
	e2e               map[string]metric
	layer             map[string]metric // filled by traced runs only
	hostFactor        float64           // median of the segments' host factors
}

// fail counts one failed operation and keeps its description.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runConfig is what every workload receives: the seed its inputs come
// from, how long its timed phase lasts, and the recorded digests its
// correctness gate compares against.
type runConfig struct {
	seed    int64
	dur     time.Duration
	digests digests
	jobs    int // service: the fixed job count; 0 derives it from dur
}

// workload is one benchmark workload. run measures it once; a non-nil
// tracer makes it the traced run.
type workload struct {
	name     string
	headline string // end-to-end throughput metric the tracing overhead is stated on
	run      func(cfg runConfig, tr *tracer) (*report, error)
}

var benchWorkloads = []workload{
	{"firmware", "guest_mips", runFirmware},
	{"campaign", "mutants_per_s", runCampaign},
	{"service", "jobs_per_s", runService},
}

// metricDef names a metric and its unit, as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"guest_mips", "1/us"},
	{"mutants_per_s", "1/s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// spanDir is where traced runs write their spans, relative to the
// checkout root the benchmark runs from.
const spanDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: firmware, campaign or service")
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1: also make a traced run and report per-layer metrics")
	record := flag.Bool("record-digests", false, "print the digests of every input's simulated results as digests.json and exit")
	flag.Parse()

	if *record {
		if err := recordDigests(); err != nil {
			fatal(err)
		}
		return
	}

	var w *workload
	for i := range benchWorkloads {
		if benchWorkloads[i].name == *name {
			w = &benchWorkloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload firmware|campaign|service [--seed N] [--seconds S] [--trace 0|1]")
		os.Exit(2)
	}
	if processCPU() <= 0 {
		fatal(fmt.Errorf("cannot read the threads' CPU clocks from /proc/self/task"))
	}
	d, err := loadDigests()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, dur: time.Duration(*seconds) * time.Second, digests: d}
	res, detail, err := measure(*w, cfg, *trace == 1, spanDir)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(detail)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// detail is the line printed before the result: the environment stamp
// and what went wrong, if anything.
type detail struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Traced   bool        `json:"traced"`
	Env      environment `json:"env"`
	// HostFactor is the untraced run's median host factor: how much
	// slower than the nominal host the reference workload ran.
	HostFactor float64  `json:"host_factor"`
	Failures   []string `json:"failures,omitempty"`
	Spans      string   `json:"spans,omitempty"`
}

// measure runs the workload untraced and, when traced, a second time
// with spans, and assembles the result line. A traced run gives each
// half the timed length, so it takes about as long as an untraced one.
func measure(w workload, cfg runConfig, traced bool, out string) (*result, *detail, error) {
	det := &detail{Workload: w.name, Seed: cfg.seed, Traced: traced, Env: stampEnvironment()}
	if traced {
		cfg.dur /= 2
	}
	base, err := w.run(cfg, nil)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: base.attempted, Failed: base.failed}
	det.Failures = base.failures
	det.HostFactor = base.hostFactor
	if !traced {
		res.Metrics, err = pick(endToEnd, base.e2e, false)
		if err != nil {
			return nil, nil, err
		}
	} else {
		runtime.GC()
		tr := newTracer()
		tres, err := w.run(cfg, tr)
		if err != nil {
			return nil, nil, err
		}
		res.Attempted += tres.attempted
		res.Failed += tres.failed
		det.Failures = append(det.Failures, tres.failures...)
		tr.addSelfShares(tres.layer)
		h := w.headline
		tres.layer["trace.overhead_pct"] = metric{
			100 * ratio(base.e2e[h].Value-tres.e2e[h].Value, base.e2e[h].Value), "%"}
		res.Metrics, err = pick(perLayer, tres.layer, true)
		if err != nil {
			return nil, nil, err
		}
		if err := os.MkdirAll(out, 0o755); err != nil {
			return nil, nil, err
		}
		det.Spans = filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
		if err := tr.write(det.Spans); err != nil {
			return nil, nil, err
		}
	}
	res.Correct = res.Failed == 0
	return res, det, nil
}

// pick selects the listed metrics from what a run measured, checking
// units. A per-layer metric of a layer the workload never reaches reads
// 0 (bypassed); an end-to-end metric must always be measured.
func pick(defs []metricDef, got map[string]metric, zeroMissing bool) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := got[d.name]
		if !ok {
			if !zeroMissing {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			m = metric{0, d.unit}
		}
		if m.Unit != d.unit {
			return nil, fmt.Errorf("metric %s measured in %s, listed in %s", d.name, m.Unit, d.unit)
		}
		out[d.name] = m
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
