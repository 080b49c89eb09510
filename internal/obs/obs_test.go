package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("s4e_test_total", "test counter")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	// Same name returns the same instrument.
	if r.Counter("s4e_test_total", "").Value() != 8000 {
		t.Error("re-registration returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("s4e_test_gauge", "")
	g.Set(2.5)
	g.Add(-1.0)
	if v := g.Value(); v != 1.5 {
		t.Errorf("gauge = %v", v)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if v := g.Value(); v != 4001.5 {
		t.Errorf("gauge after concurrent adds = %v", v)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("s4e_test_seconds", "", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 560.5 {
		t.Errorf("sum = %v", h.Sum())
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`s4e_test_seconds_bucket{le="1"} 1`,
		`s4e_test_seconds_bucket{le="10"} 3`,
		`s4e_test_seconds_bucket{le="100"} 4`,
		`s4e_test_seconds_bucket{le="+Inf"} 5`,
		`s4e_test_seconds_sum 560.5`,
		`s4e_test_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("y", "")
	h := r.Histogram("z", "", []float64{1})
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Error("nil instruments must read zero")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Error(err)
	}
	if err := r.WriteFile("/nonexistent/never-created"); err != nil {
		t.Error("nil registry WriteFile must be a no-op")
	}
	var tr *Trace
	tr.Emit("ev", "k", 1)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Error("nil trace must be inert")
	}
}

func TestKindMismatchIsNoOp(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "")
	if g := r.Gauge("dual", ""); g != nil {
		t.Error("gauge under a counter name must be nil")
	}
	if h := r.Histogram("dual", "", nil); h != nil {
		t.Error("histogram under a counter name must be nil")
	}
}

func TestPrometheusLabeledFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter(`s4e_fault_mutants_total{outcome="masked"}`, "mutants by outcome").Add(3)
	r.Counter(`s4e_fault_mutants_total{outcome="sdc"}`, "mutants by outcome").Add(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE s4e_fault_mutants_total counter") != 1 {
		t.Errorf("labeled family must share one TYPE header:\n%s", out)
	}
	if !strings.Contains(out, `s4e_fault_mutants_total{outcome="masked"} 3`) ||
		!strings.Contains(out, `s4e_fault_mutants_total{outcome="sdc"} 1`) {
		t.Errorf("labeled series missing:\n%s", out)
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "help c").Add(7)
	r.Gauge("g", "").Set(0.25)
	r.Histogram("h", "", []float64{1}).Observe(2)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []struct {
			Name    string   `json:"name"`
			Type    string   `json:"type"`
			Value   *float64 `json:"value"`
			Count   *uint64  `json:"count"`
			Buckets []struct {
				LE    string `json:"le"`
				Count uint64 `json:"count"`
			} `json:"buckets"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if len(doc.Metrics) != 3 {
		t.Fatalf("got %d metrics", len(doc.Metrics))
	}
	if doc.Metrics[0].Type != "counter" || *doc.Metrics[0].Value != 7 {
		t.Errorf("counter export wrong: %+v", doc.Metrics[0])
	}
	if doc.Metrics[1].Type != "gauge" || *doc.Metrics[1].Value != 0.25 {
		t.Errorf("gauge export wrong: %+v", doc.Metrics[1])
	}
	hm := doc.Metrics[2]
	if hm.Type != "histogram" || *hm.Count != 1 || len(hm.Buckets) != 2 {
		t.Errorf("histogram export wrong: %+v", hm)
	}
	if hm.Buckets[1].LE != "+Inf" || hm.Buckets[1].Count != 1 {
		t.Errorf("+Inf bucket wrong: %+v", hm.Buckets[1])
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(4, nil)
	for i := 0; i < 6; i++ {
		tr.Emit("ev", "i", i)
	}
	evs := tr.Events()
	if len(evs) != 4 || tr.Len() != 4 {
		t.Fatalf("ring holds %d events", len(evs))
	}
	// Oldest two fell off; remaining are 2..5 in order.
	for i, ev := range evs {
		if ev.Fields["i"] != 2+i {
			t.Errorf("event %d: fields %v", i, ev.Fields)
		}
		if ev.Seq != uint64(3+i) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
	}
}

func TestTraceJSONL(t *testing.T) {
	var sb strings.Builder
	tr := NewTrace(8, &sb)
	tr.Emit("start", "prog", "task.s")
	tr.Emit("stop", "code", 3)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Name != "start" || ev.Fields["prog"] != "task.s" || ev.Seq != 1 {
		t.Errorf("decoded event: %+v", ev)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(128, nil)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit("ev", "worker", w)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 128 {
		t.Errorf("ring len %d", tr.Len())
	}
	evs := tr.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}
