package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestSchedulerStress drives the pending list from every side at once:
// concurrent submissions against a 3-deep queue and two workers, cancels
// of queued and running jobs, sharded fault campaigns whose coordinators
// help drain the list, and finally a Shutdown whose deadline expires
// while jobs are still queued and running. Every retained job must end
// terminal, the depth gauge must read 0, and every shard of every
// campaign that started must have run exactly once.
func TestSchedulerStress(t *testing.T) {
	const shards = 3
	s := New(Config{Workers: 2, QueueDepth: 3})

	// A short loop keeps each mutant cheap; the golden is shared by every
	// campaign, as the binary cache would share it.
	loop, err := s.buildJob(Request{Type: "run", Source: `
_start:
	li t0, 40
1:	addi t0, t0, -1
	bnez t0, 1b
	li t6, SYSCON_EXIT
	sw zero, 0(t6)
2:	j 2b
`})
	if err != nil {
		t.Fatal(err)
	}
	tg := &fault.Target{Program: loop.prog, Budget: 10_000}
	golden, pool, err := fault.Prepare(tg)
	if err != nil {
		t.Fatal(err)
	}
	plan := fault.NewPlan(fault.PlanConfig{Seed: 1, GPRTransient: 6, GoldenInsts: golden.Insts})
	// Every campaign-start event is one shard execution.
	trace := obs.NewTrace(1<<16, nil)

	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		switch {
		case j.Type == "fault":
			o := fault.Options{Workers: 1, Golden: golden, Pool: pool, Trace: trace}
			return s.runShardedCampaign(ctx, j, tg, plan, o, shards)
		case j.req.Budget == 1: // the blocker: only a cancelled context ends it
			<-ctx.Done()
			return nil, ctx.Err()
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(time.Duration(j.req.Budget%3) * time.Millisecond):
			return "ok", nil
		}
	}

	var (
		mu        sync.Mutex
		ids       []string
		unstarted = map[string]bool{} // cancelled while queued: must never start
	)
	submit := func(req Request) (string, bool) {
		st, err := s.Submit(req)
		if errors.Is(err, ErrQueueFull) {
			return "", false
		}
		if err != nil {
			t.Error(err)
			return "", false
		}
		mu.Lock()
		ids = append(ids, st.ID)
		mu.Unlock()
		return st.ID, true
	}
	request := func(i int) Request {
		if i%3 == 0 {
			return Request{Type: "fault", Source: "ebreak", Fault: &FaultSpec{Shards: shards}}
		}
		return Request{Type: "run", Source: "ebreak", Budget: uint64(2 + i%5)}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40; i++ {
				id, ok := submit(request(g + i))
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				switch rng.Intn(4) {
				case 0: // most likely still queued
				case 1: // most likely running by now
					time.Sleep(time.Duration(rng.Intn(2000)) * time.Microsecond)
				default:
					continue
				}
				if st, _ := s.Cancel(id); st.State == StateCancelled && st.Started == nil {
					mu.Lock()
					unstarted[id] = true
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()

	// Shut down with a blocker and a full queue behind it, so the
	// deadline expires mid-drain.
	for {
		if _, ok := submit(Request{Type: "run", Source: "ebreak", Budget: 1}); ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		submit(request(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want the deadline to expire mid-drain", err)
	}

	started := 0
	for _, id := range ids {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s not retained", id)
		}
		if !st.State.terminal() {
			t.Errorf("job %s (%s) ended %s, want terminal", id, st.Type, st.State)
		}
		if unstarted[id] && (st.State != StateCancelled || st.Started != nil) {
			t.Errorf("job %s cancelled while queued, then ran (state %s)", id, st.State)
		}
		if st.Type != "fault" || st.Started == nil {
			continue
		}
		started++
		if st.Progress == nil || len(st.Progress.Shards) != shards {
			t.Fatalf("campaign %s progress %+v, want %d shards", id, st.Progress, shards)
		}
		for _, sp := range st.Progress.Shards {
			if sp.State != "done" {
				t.Errorf("campaign %s shard %d ended %q, want done", id, sp.Shard, sp.State)
			}
		}
	}
	runs := 0
	for _, ev := range trace.Events() {
		if ev.Name == "campaign-start" {
			runs++
		}
	}
	if runs != started*shards {
		t.Errorf("%d shard executions for %d started campaigns of %d shards, want %d",
			runs, started, shards, started*shards)
	}
	if d := s.mDepth.Value(); d != 0 {
		t.Errorf("queue depth gauge %v after shutdown, want 0", d)
	}
	if n := s.mInflight.Value(); n != 0 {
		t.Errorf("in-flight gauge %v after shutdown, want 0", n)
	}
	t.Logf("%d jobs, %d campaigns started", len(ids), started)
}
