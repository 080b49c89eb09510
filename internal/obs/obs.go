// Package obs is the dependency-light observability layer of the
// ecosystem: atomic counters, gauges and histograms collected in a
// registry with Prometheus-text and JSON export, plus a structured
// trace-event sink (trace.go) and a CPU-profile helper for the
// command-line tools (pprof.go). It exists so the runtime — the
// emulation engines, fault campaigns, QTA loops — is measurable in
// production instead of a black box.
//
// Overhead policy: every method is safe on a nil receiver and returns
// immediately, so instrumented code holds plain metric pointers that are
// nil when observability is disabled — the hot-path cost of a disabled
// metric is one predictable nil check. Enabled counters and gauges are
// single atomic operations; histograms are one atomic per bucket
// observation. Nothing in this package allocates on the update path.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are nil-safe no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value reads 0;
// all methods are nil-safe no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds d (atomically, via CAS).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into cumulative buckets with fixed
// upper bounds, Prometheus-style. All methods are nil-safe no-ops.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf bucket is implicit
	counts []atomic.Uint64 // len(bounds)+1
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// metric is one registered instrument; exactly one of c/g/h is non-nil.
type metric struct {
	name string // may carry Prometheus labels: foo_total{outcome="sdc"}
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

func (m *metric) kind() string {
	switch {
	case m.c != nil:
		return "counter"
	case m.g != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds named metrics in registration order. The zero value is
// NOT usable; call NewRegistry. A nil *Registry is valid everywhere and
// hands out nil instruments, so a disabled observability configuration
// is one nil at setup time and nil checks on the hot path.
type Registry struct {
	mu     sync.Mutex
	byName map[string]*metric
	order  []*metric
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Counter returns the counter registered under name, creating it on
// first use. The name may embed Prometheus labels
// (`foo_total{outcome="sdc"}`); the help string is kept from the first
// registration. A nil registry returns a nil (no-op) counter, as does a
// name already registered as a different kind.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.c // nil when the name is another kind: caller gets a no-op
	}
	m := &metric{name: name, help: help, c: &Counter{}}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil registry and kind mismatches behave as in Counter.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.g
	}
	m := &metric{name: name, help: help, g: &Gauge{}}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.g
}

// Histogram returns the histogram registered under name with the given
// ascending bucket bounds, creating it on first use. Nil registry and
// kind mismatches behave as in Counter.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byName[name]; ok {
		return m.h
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	h := &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	m := &metric{name: name, help: help, h: h}
	r.byName[name] = m
	r.order = append(r.order, m)
	return m.h
}

// baseName strips an embedded label set: `foo{a="b"}` -> `foo`.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// withLabel merges an extra label into a possibly-labeled name:
// withLabel(`foo{a="b"}`, `le="1"`) -> `foo{a="b",le="1"}`.
func withLabel(name, label string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:len(name)-1] + "," + label + "}"
	}
	return name + "{" + label + "}"
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format, in registration order. HELP/TYPE headers are emitted once per
// base metric name, so labeled series of one family group correctly.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	headered := map[string]bool{}
	for _, m := range r.order {
		base := baseName(m.name)
		if !headered[base] {
			headered[base] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, m.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.kind()); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.c.Value())
		case m.g != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatFloat(m.g.Value()))
		default:
			err = m.h.writePrometheus(w, m.name)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (h *Histogram) writePrometheus(w io.Writer, name string) error {
	// A labeled histogram keeps its labels on every derived series:
	// `foo{t="x"}` exposes foo_bucket{t="x",le="1"}, foo_sum{t="x"},
	// foo_count{t="x"} — otherwise labeled families would collide.
	base, labels := baseName(name), ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels = name[i:]
	}
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		le := fmt.Sprintf(`le="%s"`, formatFloat(b))
		if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(base+"_bucket"+labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n", withLabel(base+"_bucket"+labels, `le="+Inf"`), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", base, labels, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", base, labels, h.Count())
	return err
}

// jsonMetric is the JSON export shape of one metric.
type jsonMetric struct {
	Name    string       `json:"name"`
	Type    string       `json:"type"`
	Help    string       `json:"help,omitempty"`
	Value   *float64     `json:"value,omitempty"`
	Sum     *float64     `json:"sum,omitempty"`
	Count   *uint64      `json:"count,omitempty"`
	Buckets []jsonBucket `json:"buckets,omitempty"`
}

type jsonBucket struct {
	LE    string `json:"le"`    // upper bound; "+Inf" for the overflow bucket
	Count uint64 `json:"count"` // cumulative, like the text format
}

// WriteJSON renders the registry as a JSON document
// {"metrics":[...]} in registration order.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := struct {
		Metrics []jsonMetric `json:"metrics"`
	}{Metrics: []jsonMetric{}}
	f := func(v float64) *float64 { return &v }
	for _, m := range r.order {
		jm := jsonMetric{Name: m.name, Type: m.kind(), Help: m.help}
		switch {
		case m.c != nil:
			jm.Value = f(float64(m.c.Value()))
		case m.g != nil:
			jm.Value = f(m.g.Value())
		default:
			h := m.h
			sum, count := h.Sum(), h.Count()
			jm.Sum, jm.Count = &sum, &count
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				jm.Buckets = append(jm.Buckets, jsonBucket{LE: formatFloat(b), Count: cum})
			}
			cum += h.counts[len(h.bounds)].Load()
			jm.Buckets = append(jm.Buckets, jsonBucket{LE: "+Inf", Count: cum})
		}
		out.Metrics = append(out.Metrics, jm)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteFile exports the registry to path: JSON when the path ends in
// .json, Prometheus text otherwise. "-" writes Prometheus text to
// stdout. A nil registry writes nothing and returns nil.
func (r *Registry) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	if path == "-" {
		return r.WritePrometheus(os.Stdout)
	}
	fd, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = r.WriteJSON(fd)
	} else {
		err = r.WritePrometheus(fd)
	}
	if cerr := fd.Close(); err == nil {
		err = cerr
	}
	return err
}
