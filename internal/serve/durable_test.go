package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/elf"
	"repro/internal/serve/store"
	"repro/internal/workloads"
)

// TestProgramFromELFOverflow: an uploaded ELF carrying a segment whose
// end wraps the 32-bit address space comes back as a clean submission
// error, not a panic (vp.ProgramFromELF's own cases live in vp).
func TestProgramFromELFOverflow(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	bad := elf.Write(&elf.Image{Entry: 0xFFFFFFF0, Segments: []elf.Segment{{Addr: 0xFFFFFFF0, Data: make([]byte, 0x20)}}})
	if _, err := s.Submit(Request{Type: "run", ELF: bad}); err == nil ||
		!strings.Contains(err.Error(), "overflows") {
		t.Errorf("submit of wrapping ELF: err %v, want overflow rejection", err)
	}
}

// TestCancelQueuedReleasesCapacity pins the accounting fix: cancelling
// a queued job must free its queue slot immediately (gauge, admission),
// and the slot must not be released a second time when the remaining
// jobs drain.
func TestCancelQueuedReleasesCapacity(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueDepth: 2})
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "ok", nil
	}

	req := Request{Type: "run", Source: src(t, "xtea")}
	first, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the worker owns the first job; the queue is empty
	q1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-capacity submit err %v, want ErrQueueFull", err)
	}

	st, ok := s.Cancel(q1.ID)
	if !ok || st.State != StateCancelled {
		t.Fatalf("cancel queued: state %s ok=%v", st.State, ok)
	}
	if d := s.mDepth.Value(); d != 1 {
		t.Errorf("queue depth gauge %v after cancel, want 1", d)
	}
	// The freed slot is immediately usable.
	q3, err := s.Submit(req)
	if err != nil {
		t.Fatalf("submit after queued cancel: %v (slot not released)", err)
	}

	close(release)
	wait(t, s, first.ID)
	wait(t, s, q2.ID)
	wait(t, s, q3.ID)
	// The cancelled job must not be released twice: depth ends at
	// exactly zero, not negative.
	deadline := time.Now().Add(5 * time.Second)
	for s.mDepth.Value() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if d := s.mDepth.Value(); d != 0 {
		t.Errorf("final queue depth gauge %v, want 0", d)
	}
}

// TestRetentionEvictsOldestTerminal checks the bounded-retention
// policy: beyond MaxTerminal finished jobs, the oldest are evicted
// (counted), the newest stay queryable.
func TestRetentionEvictsOldestTerminal(t *testing.T) {
	s := newServer(t, Config{Workers: 1, MaxTerminal: 2})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) { return "ok", nil }
	var ids []string
	for i := 0; i < 5; i++ {
		st, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
		if err != nil {
			t.Fatal(err)
		}
		wait(t, s, st.ID)
		ids = append(ids, st.ID)
	}
	if got := len(s.Jobs()); got != 2 {
		t.Errorf("retained %d jobs, want 2", got)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest job still retained past the bound")
	}
	if _, ok := s.Job(ids[4]); !ok {
		t.Error("newest job evicted")
	}
	if got := s.mEvicted.Value(); got != 3 {
		t.Errorf("evicted counter %v, want 3", got)
	}
}

// TestRetentionTTL checks time-based eviction: a finished job older
// than TerminalTTL is dropped on the next terminal transition.
func TestRetentionTTL(t *testing.T) {
	s := newServer(t, Config{Workers: 1, TerminalTTL: 30 * time.Millisecond})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) { return "ok", nil }
	a, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, s, a.ID)
	time.Sleep(60 * time.Millisecond)
	b, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, s, b.ID)
	if _, ok := s.Job(a.ID); ok {
		t.Error("job past its TTL still retained")
	}
	if _, ok := s.Job(b.ID); !ok {
		t.Error("fresh job evicted")
	}
}

// TestIdempotencyWindowIsRetention: a key deduplicates against retained
// jobs; once its job is evicted, the key is free again.
func TestIdempotencyWindowIsRetention(t *testing.T) {
	s := newServer(t, Config{Workers: 1, MaxTerminal: 1})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) { return "ok", nil }
	req := Request{Type: "run", Source: src(t, "xtea"), IdempotencyKey: "k"}

	st1, created, err := s.submit(req)
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	wait(t, s, st1.ID)

	st2, created, err := s.submit(req)
	if err != nil || created || st2.ID != st1.ID {
		t.Fatalf("duplicate submit: id=%s created=%v err=%v, want replay of %s",
			st2.ID, created, err, st1.ID)
	}
	if st2.IdempotencyKey != "k" {
		t.Errorf("status does not echo the idempotency key: %+v", st2)
	}
	if got := s.mIdemHits.Value(); got != 1 {
		t.Errorf("idempotent hit counter %v, want 1", got)
	}

	// Push the keyed job out of retention; the key must come free.
	ev, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	wait(t, s, ev.ID)
	st3, created, err := s.submit(req)
	if err != nil || !created || st3.ID == st1.ID {
		t.Fatalf("post-eviction submit: id=%s created=%v err=%v, want a fresh job",
			st3.ID, created, err)
	}
}

// TestJournalReplayAfterCrash is the durability anchor: a server with a
// journal is killed (no drain) with one job finished, one running, and
// one queued. A fresh server over the same state directory must restore
// the finished job's status and result, re-queue and complete the two
// live jobs under their original IDs, and answer an idempotent
// resubmission with the original job instead of executing a duplicate.
func TestJournalReplayAfterCrash(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloads.ByName("xtea")

	s1 := New(Config{Workers: 1, QueueDepth: 4, Store: st1})
	started := make(chan struct{})
	var once sync.Once
	s1.execOverride = func(ctx context.Context, j *Job) (any, error) {
		if j.req.IdempotencyKey == "alpha" {
			return "ok", nil
		}
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
	reqA := Request{Type: "run", Source: w.Source, Budget: w.Budget, IdempotencyKey: "alpha"}
	jobA, err := s1.Submit(reqA)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, s1, jobA.ID)
	jobB, err := s1.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget})
	if err != nil {
		t.Fatal(err)
	}
	<-started // B is running
	jobC, err := s1.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget})
	if err != nil {
		t.Fatal(err)
	}

	// Crash: the journal stops cold — no drain, no terminal records for
	// B or C. (The forced shutdown below only reclaims the goroutines;
	// its terminal appends hit a closed store and go nowhere.)
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	s1.Shutdown(ctx) //nolint:errcheck // deadline path is the point
	cancel()

	// Restart over the same state directory. The real executor runs the
	// resumed jobs: both are plain xtea runs and complete on their own.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	s2 := newServer(t, Config{Workers: 1, QueueDepth: 4, Store: st2})

	// The finished job is back, result included, without re-running.
	stA, ok := s2.Job(jobA.ID)
	if !ok || stA.State != StateDone {
		t.Fatalf("replayed job %s: state %s ok=%v, want done", jobA.ID, stA.State, ok)
	}
	if _, res, _ := s2.Result(jobA.ID); fmt.Sprintf("%s", res) != `"ok"` {
		t.Errorf("replayed result %s, want the journaled \"ok\"", res)
	}
	if got := s2.mReplayed.Value(); got != 1 {
		t.Errorf("replayed counter %v, want 1", got)
	}

	// The interrupted jobs resume under their original IDs and finish.
	for _, id := range []string{jobB.ID, jobC.ID} {
		st := wait(t, s2, id)
		if st.State != StateDone {
			t.Fatalf("resumed job %s state %s (err %q), want done", id, st.State, st.Error)
		}
		_, res, _ := s2.Result(id)
		rr, ok := res.(RunResult)
		if !ok {
			t.Fatalf("resumed job %s result type %T", id, res)
		}
		if rr.Code != w.Expect {
			t.Errorf("resumed job %s guest code 0x%x, want 0x%x", id, rr.Code, w.Expect)
		}
	}
	if got := s2.mResumed.Value(); got != 2 {
		t.Errorf("resumed counter %v, want 2", got)
	}

	// Idempotent resubmission across the restart: same key, same job, no
	// duplicate execution.
	stDup, created, err := s2.submit(reqA)
	if err != nil || created || stDup.ID != jobA.ID {
		t.Fatalf("resubmit after restart: id=%s created=%v err=%v, want replay of %s",
			stDup.ID, created, err, jobA.ID)
	}
	if got := len(s2.Jobs()); got != 3 {
		t.Errorf("job count after idempotent resubmit %d, want 3", got)
	}
}

// TestShardedCampaignMatchesCLI is the sharding acceptance anchor: a
// campaign split into K sub-jobs on the worker pool must classify every
// mutant identically to the one-shot CLI campaign, at K=1 and K=4, and
// report complete progress.
func TestShardedCampaignMatchesCLI(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	spec := FaultSpec{Seed: 9, GPRTransient: 20, GPRPermanent: 6, MemPermanent: 10,
		CodeBitflip: 10}
	ref := cliReference(t, w.Source, w.Budget, spec)
	want := make([]string, len(ref.Details))
	for i, o := range ref.Details {
		want[i] = o.String()
	}

	s := newServer(t, Config{Workers: 4, QueueDepth: 8})
	for _, shards := range []int{1, 4} {
		sp := spec
		sp.Shards = shards
		st, err := s.Submit(Request{Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &sp})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		st = wait(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("shards=%d state %s (err %q)", shards, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		fr, ok := res.(FaultResult)
		if !ok {
			t.Fatalf("shards=%d result type %T", shards, res)
		}
		if fr.Total != ref.Total {
			t.Fatalf("shards=%d total %d, want %d", shards, fr.Total, ref.Total)
		}
		for k, o := range fr.Details {
			if o != want[k] {
				t.Fatalf("shards=%d mutant %d classified %s, CLI classified %s",
					shards, k, o, want[k])
			}
		}
		if st.Progress == nil || st.Progress.Done != uint64(ref.Total) {
			t.Errorf("shards=%d final progress %+v, want done=%d", shards, st.Progress, ref.Total)
		}
		if shards > 1 {
			if len(st.Progress.Shards) != shards {
				t.Fatalf("progress has %d shards, want %d", len(st.Progress.Shards), shards)
			}
			for _, sp := range st.Progress.Shards {
				if sp.State != "done" || sp.Done != uint64(sp.Hi-sp.Lo) {
					t.Errorf("shard %d final state %q done %d (range [%d,%d))",
						sp.Shard, sp.State, sp.Done, sp.Lo, sp.Hi)
				}
			}
		}
	}
}

// TestShardedCampaignSingleWorker: with one worker the coordinator must
// run every shard itself through the help loop — never deadlock.
func TestShardedCampaignSingleWorker(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	spec := FaultSpec{Seed: 3, GPRTransient: 12, CodeBitflip: 8, Shards: 4}
	s := newServer(t, Config{Workers: 1, QueueDepth: 2})
	st, err := s.Submit(Request{Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &spec})
	if err != nil {
		t.Fatal(err)
	}
	if st = wait(t, s, st.ID); st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
}
