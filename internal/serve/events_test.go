package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    int
	event string
	data  string
}

// readSSE parses a whole SSE stream (the handler closes it at the
// job's terminal event).
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		}
	}
	if cur.event != "" {
		out = append(out, cur)
	}
	return out
}

// types extracts the event-name sequence.
func types(evs []sseEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.event
	}
	return out
}

// TestEventsLiveStream subscribes while the job is running and checks
// the live lifecycle: queued and running replayed on attach, the
// terminal event streamed when it happens, then the stream ends.
func TestEventsLiveStream(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	started := make(chan struct{})
	release := make(chan struct{})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		close(started)
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "ok", nil
	}
	_, st := postJob(t, ts, Request{Type: "run", Source: src(t, "xtea")})
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	close(release)

	evs := readSSE(t, resp.Body) // returns when the handler ends the stream
	got := strings.Join(types(evs), ",")
	if got != "queued,running,done" {
		t.Fatalf("event sequence %q, want queued,running,done", got)
	}
	for i, ev := range evs {
		if ev.id != i+1 {
			t.Errorf("event %d has id %d, want %d", i, ev.id, i+1)
		}
		var body Event
		if err := json.Unmarshal([]byte(ev.data), &body); err != nil {
			t.Errorf("event %d data %q: %v", i, ev.data, err)
		} else if body.Seq != ev.id || body.Type != ev.event {
			t.Errorf("event %d payload %+v disagrees with frame id=%d event=%s",
				i, body, ev.id, ev.event)
		}
	}
}

// TestEventsReplayAfterTerminal: attaching after the job finished
// replays the retained transition history and ends immediately.
func TestEventsReplayAfterTerminal(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	w, _ := workloads.ByName("xtea")
	_, st := postJob(t, ts, Request{Type: "run", Source: w.Source, Budget: w.Budget})
	wait(t, s, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := strings.Join(types(readSSE(t, resp.Body)), ","); got != "queued,running,done" {
		t.Fatalf("replayed sequence %q, want queued,running,done", got)
	}
}

// TestEventsLastEventIDResume: a reconnect carrying Last-Event-ID only
// receives events it has not seen.
func TestEventsLastEventIDResume(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	w, _ := workloads.ByName("xtea")
	_, st := postJob(t, ts, Request{Type: "run", Source: w.Source, Budget: w.Budget})
	wait(t, s, st.ID)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", "2")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, resp.Body)
	if len(evs) != 1 || evs[0].event != "done" || evs[0].id != 3 {
		t.Fatalf("resumed events %+v, want just the terminal (id 3)", evs)
	}
}

// TestEventsErrorCarriesMessage: the terminal event of a failed job
// carries the error string.
func TestEventsErrorCarriesMessage(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 1})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		return nil, io.ErrUnexpectedEOF
	}
	_, st := postJob(t, ts, Request{Type: "run", Source: src(t, "xtea")})
	wait(t, s, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, resp.Body)
	final := evs[len(evs)-1]
	if final.event != "errored" || !strings.Contains(final.data, "unexpected EOF") {
		t.Fatalf("terminal event %+v, want errored with the message", final)
	}
}

// TestEventsCampaignProgress: a sharded fault job's stream carries a
// progress event whose final snapshot covers every shard.
func TestEventsCampaignProgress(t *testing.T) {
	s, ts := httpServer(t, Config{Workers: 2, QueueDepth: 8})
	w, _ := workloads.ByName("xtea")
	spec := FaultSpec{Seed: 4, GPRTransient: 12, CodeBitflip: 6, Shards: 3}
	_, st := postJob(t, ts, Request{Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &spec})
	wait(t, s, st.ID)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	evs := readSSE(t, resp.Body)
	var prog *Progress
	for _, ev := range evs {
		if ev.event != "progress" {
			continue
		}
		var body struct {
			Data Progress `json:"data"`
		}
		if err := json.Unmarshal([]byte(ev.data), &body); err != nil {
			t.Fatalf("progress payload %q: %v", ev.data, err)
		}
		prog = &body.Data
	}
	if prog == nil {
		t.Fatalf("no progress event in %v", types(evs))
	}
	if prog.Done != prog.Total || prog.Total == 0 {
		t.Errorf("final progress %d/%d, want complete", prog.Done, prog.Total)
	}
	if len(prog.Shards) != 3 {
		t.Fatalf("progress has %d shards, want 3", len(prog.Shards))
	}
	for _, sp := range prog.Shards {
		if sp.State != "done" {
			t.Errorf("shard %d state %q, want done", sp.Shard, sp.State)
		}
	}
	if evs[len(evs)-1].event != "done" {
		t.Errorf("stream ended with %q, want the terminal event last", evs[len(evs)-1].event)
	}
}

func TestEventsUnknownJob404(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1})
	if code, _ := getJSON(t, ts.URL+"/v1/jobs/nope/events"); code != http.StatusNotFound {
		t.Errorf("unknown job events status %d, want 404", code)
	}
}
