package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile of xs by the nearest-rank rule:
// the smallest sample with at least q of the samples at or below it.
// It is always one of the measured values, never an interpolation. xs
// is sorted in place; an empty slice yields 0.
func quantile[T float32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return float64(xs[max(0, min(i, len(xs)-1))])
}

// median is quantile(xs, 0.5) over a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// sampleBuf keeps raw samples in a fixed buffer, written through at
// construction, so that the benchmark's own memory — and peak_rss_mb
// with it — does not grow with the speed of the code under test. When
// the buffer fills, every second sample is dropped and from then on
// only every second observation is kept (then every fourth, and so on):
// percentiles then come from a systematic sample of all observations.
type sampleBuf struct {
	buf    []float32
	n      int // samples kept
	stride int // keep one observation in stride
	seen   int // observations since the last kept one
}

func newSampleBuf(capacity int) *sampleBuf {
	buf := make([]float32, capacity)
	for i := range buf {
		buf[i] = -1 // touch every page now, not as samples arrive
	}
	return &sampleBuf{buf: buf, stride: 1}
}

func (b *sampleBuf) add(v float64) {
	if b.seen++; b.seen < b.stride {
		return
	}
	if b.n == len(b.buf) {
		for i := 0; i < b.n/2; i++ {
			b.buf[i] = b.buf[2*i+1]
		}
		b.n /= 2
		b.stride *= 2
		if b.seen < b.stride {
			return
		}
	}
	b.seen = 0
	b.buf[b.n] = float32(v)
	b.n++
}

// quantile is the exact q-quantile of the kept samples. It sorts them
// in place, allocating nothing.
func (b *sampleBuf) quantile(q float64) float64 { return quantile(b.buf[:b.n], q) }

// kept is the samples the buffer holds.
func (b *sampleBuf) kept() []float32 { return b.buf[:b.n] }

// timedPasses calls pass until dur of wall time has elapsed, at least
// once, and returns each pass's process CPU time in µs. Each pass is
// one bench.pass span.
func timedPasses(dur time.Duration, tr *tracer, pass func(op string)) []float64 {
	var passes []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < dur; n++ {
		op := "pass-" + strconv.Itoa(n)
		sp := tr.begin("bench.pass", op)
		t0 := processCPU()
		pass(op)
		passes = append(passes, us(processCPU()-t0))
		tr.end(sp)
	}
	return passes
}

// segments is how many times a run sets its workload up. The timed
// phase is split into as many segments, each measured on a state set
// up just before it from a collected heap, so the set-up times are
// spread over the whole run like the timed samples; setup_s is their
// median. Set-ups made back to back at the start of a run all fell
// into whatever speed state the host was in at that moment.
const segments = 10

// segmented runs the segments of a run: for each, it builds a fresh
// state with setup, then hands it to measure with the segment's index.
// release, when non-nil, ends a state after its segment. No state
// outlives its segment, so set-ups never overlap in memory. The host
// gauge g is sampled just before and just after each segment's timed
// phase, when nothing else runs. It returns each segment's set-up time
// in seconds of process CPU time and its host factor.
func segmented[T any](g *hostGauge, setup func(seg int) (T, error), measure func(s T, seg int), release func(T) error) (setups, factors []float64, err error) {
	for seg := 0; seg < segments; seg++ {
		runtime.GC()
		t0 := processCPU()
		s, err := setup(seg)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, (processCPU() - t0).Seconds())
		g.reset()
		g.sample()
		measure(s, seg)
		g.sample()
		factors = append(factors, g.factor())
		if release != nil {
			if err := release(s); err != nil {
				return nil, nil, err
			}
		}
	}
	return setups, factors, nil
}

// scaled appends xs divided by the host factor f to dst.
func scaled(dst, xs []float64, f float64) []float64 {
	for _, x := range xs {
		dst = append(dst, x/f)
	}
	return dst
}

// ms and us convert a duration to fractional milli- and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's maximum resident set size in MB
// (getrusage ru_maxrss, which Linux reports in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memSample is the allocation state at one instant, for per-operation
// allocation, GC and page-fault rates over a timed phase. A difference
// of two samples is the cost of what ran between them.
type memSample struct {
	alloc  uint64 // bytes allocated
	gcs    uint64 // completed GC cycles
	minflt uint64 // minor page faults (getrusage ru_minflt)
}

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return memSample{alloc: m.TotalAlloc, gcs: uint64(m.NumGC), minflt: uint64(ru.Minflt)}
}

// since is what was spent from before to m.
func (m memSample) since(before memSample) memSample {
	return memSample{m.alloc - before.alloc, m.gcs - before.gcs, m.minflt - before.minflt}
}

func (m *memSample) add(d memSample) {
	m.alloc += d.alloc
	m.gcs += d.gcs
	m.minflt += d.minflt
}

// addRuntimeMetrics records the allocation, GC and page-fault rates per
// operation of what the timed phases spent. Page faults show what
// returning freed heap to the OS costs: run.sh makes the runtime free
// memory with MADV_FREE, which the Go default (MADV_DONTNEED) does not,
// so a workload that allocates less faults less under either setting.
func addRuntimeMetrics(layer map[string]metric, spent memSample, ops int) {
	layer["runtime.alloc_bytes_per_op"] = metric{ratio(float64(spent.alloc), float64(ops)), "B"}
	layer["runtime.gc_per_op"] = metric{ratio(float64(spent.gcs), float64(ops)), "count"}
	layer["runtime.page_faults_per_op"] = metric{ratio(float64(spent.minflt), float64(ops)), "count"}
}

// environment is stamped into every result: what built and ran it.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func stampEnvironment() environment {
	return environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
	}
}

// commit names the checked-out revision, or "unknown" when the working
// directory is not itself a git work tree (an exported source tree has
// no history to ask). The ceiling keeps git from searching the parent
// directories.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
