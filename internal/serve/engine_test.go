package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/serve/store"
	"repro/internal/workloads"
)

// unknownEngine is an engine name no version accepts; a journal written
// by another build may still carry one.
const unknownEngine = "jit"

// TestUnknownEngineRejected: a submission naming an engine that does not
// exist is a client error (400) whose message names every engine, so the
// client can correct the request.
func TestUnknownEngineRejected(t *testing.T) {
	_, ts := httpServer(t, Config{Workers: 1})
	body, err := json.Marshal(Request{Type: "run", Source: src(t, "xtea"), Engine: unknownEngine})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, msg)
	}
	for _, want := range []string{unknownEngine, emu.EngineList()} {
		if !strings.Contains(string(msg), want) {
			t.Errorf("error body %s does not mention %q", msg, want)
		}
	}
}

// TestRetiredEngineAlias: "threaded", the retired closure-compiled
// engine's name, runs on the default engine with the default engine's
// result.
func TestRetiredEngineAlias(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	w, _ := workloads.ByName("xtea")
	var results []any
	for _, eng := range []string{"threaded", "superblock"} {
		st, err := s.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget, Engine: eng})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if st = wait(t, s, st.ID); st.State != StateDone {
			t.Fatalf("%s: job state %s (err %q)", eng, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		results = append(results, res)
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("threaded result %+v, superblock result %+v", results[0], results[1])
	}
}

// TestUnknownEngineJournalResume: a journal holds a queued job naming an
// engine this build does not know, next to a queued job naming the
// retired "threaded" alias and a valid one. A restart must neither panic
// nor drop a job: the unknown-engine job comes back errored through the
// resume-failure path, with the error journaled, while the other two
// resume and complete.
func TestUnknownEngineJournalResume(t *testing.T) {
	dir := t.TempDir()
	w, _ := workloads.ByName("xtea")
	old, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	unknownID, aliasID, validID := newID(), newID(), newID()
	for _, r := range []struct {
		id, engine string
	}{{unknownID, unknownEngine}, {aliasID, "threaded"}, {validID, "superblock"}} {
		req, err := json.Marshal(Request{Type: "run", Source: w.Source, Budget: w.Budget, Engine: r.engine})
		if err != nil {
			t.Fatal(err)
		}
		if err := old.Append(store.Record{
			Time: time.Now(), Kind: store.RecordSubmit, JobID: r.id, Type: "run", Request: req,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(t, Config{Workers: 1, Store: st})
	got, ok := s.Job(unknownID)
	if !ok {
		t.Fatal("job naming an unknown engine was lost on restart")
	}
	if got.State != StateErrored || !strings.Contains(got.Error, unknownEngine) {
		t.Errorf("unknown-engine job: state %s error %q, want errored naming %q",
			got.State, got.Error, unknownEngine)
	}
	for _, id := range []string{aliasID, validID} {
		if done := wait(t, s, id); done.State != StateDone {
			t.Errorf("job %s: state %s (err %q), want done", id, done.State, done.Error)
		}
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The errored outcome is durable: a second restart replays it as a
	// terminal job instead of retrying the resume.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newServer(t, Config{Workers: 1, Store: st2})
	if again, ok := s2.Job(unknownID); !ok || again.State != StateErrored {
		t.Errorf("after second restart: state %s ok=%v, want errored", again.State, ok)
	}
}
