package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/workloads"
)

// httpServer starts an httptest server over a fresh service.
func httpServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postJob submits a request body and decodes the response.
func postJob(t *testing.T, ts *httptest.Server, req Request) (*http.Response, Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// getJSON fetches a URL and returns status code plus raw body.
func getJSON(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

func TestHTTPLifecycle(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 2})
	w, _ := workloads.ByName("xtea")

	resp, st := postJob(t, ts, Request{Type: "run", Source: w.Source, Budget: w.Budget})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location %q", loc)
	}

	// Poll the result endpoint: 202 while pending, 200 with payload once
	// terminal.
	deadline := time.Now().Add(30 * time.Second)
	var code int
	var body []byte
	for time.Now().Before(deadline) {
		code, body = getJSON(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
		if code == http.StatusOK {
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("result status %d: %s", code, body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	var rb struct {
		Status Status          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &rb); err != nil {
		t.Fatalf("result body: %v (%s)", err, body)
	}
	if rb.Status.State != StateDone {
		t.Fatalf("final state %s (err %q)", rb.Status.State, rb.Status.Error)
	}
	var rr RunResult
	if err := json.Unmarshal(rb.Result, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Code != w.Expect {
		t.Errorf("guest code 0x%x, want 0x%x", rr.Code, w.Expect)
	}

	// Status endpoint agrees; listing contains the job.
	code, body = getJSON(t, ts.URL+"/v1/jobs/"+st.ID)
	if code != http.StatusOK || !strings.Contains(string(body), st.ID) {
		t.Errorf("status endpoint %d: %s", code, body)
	}
	code, body = getJSON(t, ts.URL+"/v1/jobs")
	if code != http.StatusOK || !strings.Contains(string(body), st.ID) {
		t.Errorf("list endpoint %d: %s", code, body)
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status %d, want 400", resp.StatusCode)
	}

	resp, _ = postJob(t, ts, Request{Type: "warp", Source: "x"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid job status %d, want 400", resp.StatusCode)
	}

	if code, _ := getJSON(t, ts.URL+"/v1/jobs/doesnotexist"); code != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", code)
	}
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/doesnotexist/result"); code != http.StatusNotFound {
		t.Errorf("unknown result status %d, want 404", code)
	}
}

// TestFaultPlanCaps: a fault spec whose plan exceeds the per-request
// caps is a client error (400), rejected before any plan is built —
// including counts whose sum would overflow.
func TestFaultPlanCaps(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1})
	for name, spec := range map[string]FaultSpec{
		"total":    {GPRTransient: maxFaultMutants, CodeBitflip: 1},
		"one":      {MemPermanent: maxFaultMutants + 1},
		"negative": {GPRTransient: 10, GPRPermanent: -1},
		"overflow": {GPRTransient: math.MaxInt, MemPermanent: math.MaxInt},
	} {
		resp, _ := postJob(t, ts, Request{Type: "fault", Source: src(t, "xtea"), Fault: &spec})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// An ISR stack window that is not whole words would plan memory
	// flips past its top: this one past the end of RAM.
	spec := FaultSpec{MemPermanent: 50, ISRHandler: "handler", StackBytes: 6}
	resp, _ := postJob(t, ts, Request{Type: "fault", Source: src(t, "pid_timer"), Fault: &spec})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("misaligned stack_bytes: status %d, want 400", resp.StatusCode)
	}
}

// TestRequestFieldCaps: every sized request field has a cap; one past
// it is a client error (400) and the cap itself is accepted (202).
func TestRequestFieldCaps(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1, QueueDepth: 64})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) { return "ok", nil }
	xtea := src(t, "xtea")
	fault := func(f FaultSpec) Request {
		f.GPRTransient = 1
		return Request{Type: "fault", Source: xtea, Fault: &f}
	}
	irt := func(samples int) Request {
		return Request{Type: "irt", IRQ: &IRQSpec{Workload: "pid_timer", Samples: samples}}
	}
	for _, c := range []struct {
		field     string
		atCap, up Request
	}{
		{"budget", Request{Type: "run", Source: xtea, Budget: maxBudget},
			Request{Type: "run", Source: xtea, Budget: maxBudget + 1}},
		{"timeout_ms", Request{Type: "run", Source: xtea, TimeoutMS: maxTimeoutMS},
			Request{Type: "run", Source: xtea, TimeoutMS: maxTimeoutMS + 1}},
		{"timeout_ms negative", Request{Type: "run", Source: xtea, TimeoutMS: 0},
			Request{Type: "run", Source: xtea, TimeoutMS: -1}},
		{"irq.samples", irt(maxIRQSamples), irt(maxIRQSamples + 1)},
		{"irq.samples negative", irt(0), irt(-1)},
		{"fault.shards", fault(FaultSpec{Shards: maxFaultShards}), fault(FaultSpec{Shards: maxFaultShards + 1})},
		{"fault.shards negative", fault(FaultSpec{Shards: 0}), fault(FaultSpec{Shards: -1})},
		{"fault.stack_bytes", fault(FaultSpec{StackBytes: maxStackBytes}), fault(FaultSpec{StackBytes: maxStackBytes + 1})},
	} {
		if resp, _ := postJob(t, ts, c.up); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s over the cap: status %d, want 400", c.field, resp.StatusCode)
		}
		if resp, _ := postJob(t, ts, c.atCap); resp.StatusCode != http.StatusAccepted {
			t.Errorf("%s at the cap: status %d, want 202", c.field, resp.StatusCode)
		}
	}
}

func TestHTTPQueueOverflow429(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "ok", nil
	}
	defer close(release)

	req := Request{Type: "run", Source: src(t, "xtea")}
	var overflowed *http.Response
	for i := 0; i < 4; i++ {
		resp, _ := postJob(t, ts, req)
		if resp.StatusCode == http.StatusTooManyRequests {
			overflowed = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status %d", i, resp.StatusCode)
		}
	}
	if overflowed == nil {
		t.Fatal("queue never overflowed")
	}
	if ra := overflowed.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
}

func TestHTTPCancel(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	started := make(chan struct{})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	_, st := postJob(t, ts, Request{Type: "run", Source: src(t, "xtea")})
	<-started

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := wait(t, s, st.ID)
	if final.State != StateCancelled {
		t.Errorf("state %s, want cancelled", final.State)
	}
}

// TestHTTPMetricsAndHealth drives one real job through the service and
// checks the acceptance-level observability: a populated latency
// histogram, the queue-depth gauges, and a healthy /healthz.
func TestHTTPMetricsAndHealth(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	w, _ := workloads.ByName("xtea")
	_, st := postJob(t, ts, Request{Type: "run", Source: w.Source, Budget: w.Budget})
	wait(t, s, st.ID)

	code, body := getJSON(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		`s4e_serve_job_seconds_count{type="run"} 1`,
		`s4e_serve_jobs_submitted_total{type="run"} 1`,
		`s4e_serve_jobs_finished_total{type="run",state="done"} 1`,
		"s4e_serve_queue_depth_peak 1",
		"s4e_serve_queue_capacity 16",
		"s4e_serve_workers 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = getJSON(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d: %s", code, body)
	}
	var h healthBody
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != 1 || h.Jobs != 1 {
		t.Errorf("healthz %+v", h)
	}
}

// TestHTTPHealthzDraining checks that a draining server reports 503.
func TestHTTPHealthzDraining(t *testing.T) {
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	code, body := getJSON(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Errorf("draining healthz %d: %s", code, body)
	}
}
