package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Parent is the index of the enclosing
// span (-1 at top level); Op names the operation the span belongs to: a
// pass, a campaign shard or a service job ID.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     string `json:"op"`
}

// tracer keeps spans in memory for one traced run; they are written out
// when the run ends. A nil *tracer is the untraced run: every method is
// a no-op, so the same code path measures both. A tracer is used from
// one goroutine only.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (t *tracer) begin(name, op string) int32 {
	if t == nil {
		return -1
	}
	id := t.add(name, op, time.Now(), time.Time{}, t.current())
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// current is the innermost open span, -1 when none is open.
func (t *tracer) current() int32 {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// add records a span whose ends were stamped elsewhere (a service job's
// server-side timestamps). A zero end leaves the span open for end.
func (t *tracer) add(name, op string, start, end time.Time, parent int32) int32 {
	if t == nil {
		return -1
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), Parent: parent, Op: op}
	if !end.IsZero() {
		s.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerOf is a span's layer: the part of its name before the first dot
// ("emu.run" belongs to emu).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, the spans' self time: each span's duration
// minus the part of it its child spans cover. Children never overlap
// each other (one goroutine records them in sequence).
func (t *tracer) selfTimes() map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[layerOf(s.Name)] += float64(self[i])
	}
	return out
}

// selfShareLayers are the layers whose share of traced self time is
// reported. "bench" is the benchmark's own bookkeeping between calls.
var selfShareLayers = []string{"bench", "asm", "vp", "emu", "fault", "serve", "client"}

// addSelfShares records each layer's share of all traced self time.
func (t *tracer) addSelfShares(layer map[string]metric) {
	self := t.selfTimes()
	var total float64
	for _, v := range self {
		total += v
	}
	for _, l := range selfShareLayers {
		layer["trace.self_share."+l] = metric{ratio(self[l], total), "ratio"}
	}
}

// write dumps the spans as JSON lines, one span per line, in the order
// they were opened.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
