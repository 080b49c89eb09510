package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/elf"
	"repro/internal/emu"
	"repro/internal/fault"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// src returns the assembly source of a named workload.
func src(t *testing.T, name string) string {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %s missing", name)
	}
	return w.Source
}

// newServer builds a server the test owns; it is drained at cleanup.
func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

// wait polls a job until it reaches a terminal state.
func wait(t *testing.T, s *Server, id string) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := s.Job(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if st.State.terminal() {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return Status{}
}

func TestSubmitValidation(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	xtea := src(t, "xtea")
	cases := []struct {
		name string
		req  Request
	}{
		{"unknown type", Request{Type: "paint", Source: xtea}},
		{"no program", Request{Type: "run"}},
		{"both programs", Request{Type: "run", Source: xtea, ELF: []byte{1}}},
		{"bad source", Request{Type: "run", Source: "not asm $$"}},
		{"bad profile", Request{Type: "run", Source: xtea, Profile: "warp9"}},
		{"bad engine", Request{Type: "run", Source: xtea, Engine: "jit"}},
		{"fault without spec", Request{Type: "fault", Source: xtea}},
		{"fault bad isr symbol", Request{Type: "fault", Source: xtea,
			Fault: &FaultSpec{GPRTransient: 1, ISRHandler: "nosuch"}}},
		{"irt without spec", Request{Type: "irt", Source: xtea}},
		{"irt unknown workload", Request{Type: "irt", IRQ: &IRQSpec{Workload: "xtea"}}},
		{"irt workload plus source", Request{Type: "irt", Source: xtea,
			IRQ: &IRQSpec{Workload: "pid_timer"}}},
		{"irt source without handler", Request{Type: "irt", Source: xtea, IRQ: &IRQSpec{}}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); err == nil {
			t.Errorf("%s: submit accepted, want error", c.name)
		}
	}
}

func TestRunJob(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	w, _ := workloads.ByName("xtea")
	st, err := s.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("run job state %s (err %q)", st.State, st.Error)
	}
	_, res, _ := s.Result(st.ID)
	rr, ok := res.(RunResult)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if rr.Code != w.Expect {
		t.Errorf("guest code 0x%x, want 0x%x", rr.Code, w.Expect)
	}
	if rr.Insts == 0 || rr.Cycles == 0 {
		t.Errorf("counters not populated: %+v", rr)
	}
}

func TestAnalysisJobTypes(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	xtea := src(t, "xtea")
	for _, typ := range []string{"wcet", "qta", "lint", "subset"} {
		st, err := s.Submit(Request{Type: typ, Source: xtea, Budget: 100_000})
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		st = wait(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s job state %s (err %q)", typ, st.State, st.Error)
		}
	}
}

// indirectCallSource calls its helper through a register (la + jalr):
// only the closed interprocedural graph of subset.Resolve sees the call.
const indirectCallSource = `
_start:
	li   a0, 0
	la   t0, helper
	jalr ra, t0, 0
	li   t6, SYSCON_EXIT
	sw   a0, 0(t6)
1:	j 1b
helper:
	addi a0, a0, 42
	ret
`

// The wcet and qta jobs analyze the graph the flow analyzes: the
// indirect call is bounded with the flow's WCET, and the co-simulation
// over it is sound.
func TestAnalysisJobsResolveIndirectCalls(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+indirectCallSource, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flow.Analyze(context.Background(), prog, timing.EdgeSmall(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if want.Annotated.WCET != 19 {
		t.Fatalf("flow WCET %d on edge-small, want 19", want.Annotated.WCET)
	}
	s := newServer(t, Config{Workers: 1})
	for _, typ := range []string{"wcet", "qta"} {
		st, err := s.Submit(Request{Type: typ, Source: indirectCallSource, Budget: 1000})
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		st = wait(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("%s job state %s (err %q)", typ, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		switch r := res.(type) {
		case WCETResult:
			if r.WCET != want.Annotated.WCET {
				t.Errorf("wcet job bound %d, flow bound %d", r.WCET, want.Annotated.WCET)
			}
		case QTAResult:
			if !r.Sound || r.StaticWCET != want.Annotated.WCET || r.StopReason != "exit" {
				t.Errorf("qta job %+v, want a sound exit under static bound %d", r, want.Annotated.WCET)
			}
		default:
			t.Fatalf("%s result type %T", typ, res)
		}
	}
}

func TestSubsetJob(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	st, err := s.Submit(Request{Type: "subset", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, s, st.ID)
	if st.State != StateDone {
		t.Fatalf("subset job state %s (err %q)", st.State, st.Error)
	}
	_, res, _ := s.Result(st.ID)
	sr, ok := res.(SubsetResult)
	if !ok {
		t.Fatalf("result type %T", res)
	}
	if sr.Report == nil || len(sr.Report.Ops) == 0 {
		t.Fatalf("empty subset report: %+v", sr)
	}
	if !sr.Report.Sound {
		t.Errorf("xtea should analyze sound: unresolved=%v", sr.Report.Unresolved)
	}
}

// cliReference runs the exact campaign cmd/s4e-fault would run for
// the workload and spec, directly through the fault package.
func cliReference(t *testing.T, source string, budget uint64, spec FaultSpec) *fault.Results {
	t.Helper()
	prog, err := asm.AssembleAt(vp.Prelude+source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	return programReference(t, prog, budget, spec)
}

// programReference runs the default-plan campaign over an already
// assembled program, its code and data ranges spanning the image
// wherever it sits in RAM.
func programReference(t *testing.T, prog *asm.Program, budget uint64, spec FaultSpec) *fault.Results {
	t.Helper()
	tg := &fault.Target{Program: prog, Budget: budget}
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	end := prog.Org + uint32(len(prog.Bytes))
	plan := fault.NewPlan(fault.PlanConfig{
		Seed:         spec.Seed,
		GPRTransient: spec.GPRTransient,
		GPRPermanent: spec.GPRPermanent,
		MemPermanent: spec.MemPermanent,
		CodeBitflip:  spec.CodeBitflip,
		GoldenInsts:  g.Insts,
		CodeStart:    prog.Org, CodeEnd: end,
		DataStart: prog.Org, DataEnd: end,
	})
	res, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestFaultServiceMatchesCLI is the service's end-to-end anchor: eight
// concurrent campaign jobs over the same uploaded program must each be
// classification-identical, mutant by mutant, to the one-shot CLI
// campaign with the same plan parameters — shared golden, shared
// translation pool and queueing notwithstanding.
func TestFaultServiceMatchesCLI(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	spec := FaultSpec{Seed: 7, GPRTransient: 30, GPRPermanent: 10, MemPermanent: 15, CodeBitflip: 15}
	ref := cliReference(t, w.Source, w.Budget, spec)

	const jobs = 8
	s := newServer(t, Config{Workers: 4, QueueDepth: jobs})
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := s.Submit(Request{
				Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &spec,
			})
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	want := make([]string, len(ref.Details))
	for i, o := range ref.Details {
		want[i] = o.String()
	}
	for i, id := range ids {
		st := wait(t, s, id)
		if st.State != StateDone {
			t.Fatalf("job %d state %s (err %q)", i, st.State, st.Error)
		}
		_, res, _ := s.Result(id)
		fr, ok := res.(FaultResult)
		if !ok {
			t.Fatalf("job %d result type %T", i, res)
		}
		if fr.Total != ref.Total {
			t.Fatalf("job %d total %d, want %d", i, fr.Total, ref.Total)
		}
		for k, o := range fr.Details {
			if o != want[k] {
				t.Fatalf("job %d mutant %d classified %s, CLI classified %s", i, k, o, want[k])
			}
		}
	}
}

// TestPoolCacheSharing checks the cross-job reuse contract: the second
// campaign over the same binary reuses the first one's golden run and
// translation pool (a cache hit), instead of recomputing them, and its
// workers really adopt the pooled blocks although every job builds its
// own profile. A later run job over the binary warm-starts from the
// same pool.
func TestPoolCacheSharing(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	spec := FaultSpec{Seed: 3, GPRTransient: 10}
	s := newServer(t, Config{Workers: 2}) // jobs may land on different workers
	hits := s.reg.Counter(`s4e_serve_pool_jobs_total{cache="hit"}`, "")
	adopted := s.reg.Counter(vp.MetricPoolHits, "")

	for i := 0; i < 2; i++ {
		before := adopted.Value()
		st, err := s.Submit(Request{Type: "fault", Source: w.Source, Budget: w.Budget, Fault: &spec})
		if err != nil {
			t.Fatal(err)
		}
		if st = wait(t, s, st.ID); st.State != StateDone {
			t.Fatalf("job %d state %s (err %q)", i, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		if fr := res.(FaultResult); !fr.PoolShared {
			t.Errorf("job %d did not share the translation pool", i)
		}
		if adopted.Value() == before {
			t.Errorf("job %d adopted no pooled block (%s stayed %v)", i, vp.MetricPoolHits, before)
		}
	}
	if got := hits.Value(); got != 1 {
		t.Errorf("pool cache hits %v, want 1 (second job reuses the first's golden+pool)", got)
	}

	st, err := s.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget})
	if err != nil {
		t.Fatal(err)
	}
	if st = wait(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run job state %s (err %q)", st.State, st.Error)
	}
	if got := hits.Value(); got != 2 {
		t.Errorf("pool cache hits %v after the run job, want 2 (it attaches the campaigns' pool)", got)
	}
}

// TestPoolSharedNeedsBlocks: a golden run whose stores bracket all of
// its code in its only page leaves no clean translation to pool, so the
// fault job reports that it shared none.
func TestPoolSharedNeedsBlocks(t *testing.T) {
	const selfWrite = `
lo:
	.word 0
_start:
	la t0, lo
	li t1, 7
	sw t1, 0(t0)
	la t0, hi
	sw t1, 0(t0)
	lw a0, 0(t0)
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
hi:
	.word 0
`
	s := newServer(t, Config{Workers: 1})
	st, err := s.Submit(Request{Type: "fault", Source: selfWrite, Fault: &FaultSpec{Seed: 1, GPRTransient: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if st = wait(t, s, st.ID); st.State != StateDone {
		t.Fatalf("state %s (err %q)", st.State, st.Error)
	}
	_, res, _ := s.Result(st.ID)
	if fr := res.(FaultResult); fr.PoolShared {
		t.Errorf("pool_shared = true for an empty pool (golden %s)", fr.GoldenStop)
	}

	// A run job over the binary finds the same empty pool: a miss.
	hits := s.reg.Counter(`s4e_serve_pool_jobs_total{cache="hit"}`, "")
	misses := s.reg.Counter(`s4e_serve_pool_jobs_total{cache="miss"}`, "")
	h0, m0 := hits.Value(), misses.Value()
	if st, err = s.Submit(Request{Type: "run", Source: selfWrite}); err != nil {
		t.Fatal(err)
	}
	if st = wait(t, s, st.ID); st.State != StateDone {
		t.Fatalf("run job state %s (err %q)", st.State, st.Error)
	}
	if hits.Value() != h0 || misses.Value() != m0+1 {
		t.Errorf("run job over an empty pool: hits %v -> %v, misses %v -> %v; want a miss",
			h0, hits.Value(), m0, misses.Value())
	}
}

// TestFaultJobOffBaseELF: an ELF image that does not start at the RAM
// base gets a default plan over its own bytes and a platform RAM that
// reaches its end, so the service campaign matches the campaign over
// the same program, mutant by mutant.
func TestFaultJobOffBaseELF(t *testing.T) {
	w, _ := workloads.ByName("crc32")
	spec := FaultSpec{Seed: 5, MemPermanent: 50, CodeBitflip: 200}
	s := newServer(t, Config{Workers: 1})
	for _, off := range []uint32{0x1000, 2 << 20} {
		t.Run(fmt.Sprintf("offset_0x%x", off), func(t *testing.T) {
			prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase+off)
			if err != nil {
				t.Fatal(err)
			}
			ref := programReference(t, prog, w.Budget, spec)
			if ref.ByOutcome[fault.Masked] == ref.Total {
				t.Fatal("reference campaign masked every mutant")
			}
			data := elf.Write(&elf.Image{Entry: prog.Entry,
				Segments: []elf.Segment{{Addr: prog.Org, Data: prog.Bytes}}, Symbols: prog.Symbols})
			st, err := s.Submit(Request{Type: "fault", ELF: data, Budget: w.Budget, Fault: &spec})
			if err != nil {
				t.Fatal(err)
			}
			if st = wait(t, s, st.ID); st.State != StateDone {
				t.Fatalf("state %s (err %q)", st.State, st.Error)
			}
			_, res, _ := s.Result(st.ID)
			fr := res.(FaultResult)
			if fr.Errors != "" || fr.Total != ref.Total {
				t.Fatalf("total %d (errors %q), want %d", fr.Total, fr.Errors, ref.Total)
			}
			for k, o := range ref.Details {
				if fr.Details[k] != o.String() {
					t.Fatalf("mutant %d classified %s, want %s", k, fr.Details[k], o)
				}
			}
		})
	}
}

// TestELFOutsideRAMRejected: an image the platform RAM cannot hold is a
// submission error (HTTP 400), not a job that fails when it runs.
func TestELFOutsideRAMRejected(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	for _, seg := range []elf.Segment{
		{Addr: 0x1000, Data: []byte{0x13, 0, 0, 0}},
		{Addr: vp.RAMBase + vp.DefaultRAMSize - 2, Data: []byte{0x13, 0, 0, 0}},
	} {
		data := elf.Write(&elf.Image{Entry: seg.Addr, Segments: []elf.Segment{seg}})
		for _, typ := range []string{"run", "qta", "fault"} {
			req := Request{Type: typ, ELF: data}
			if typ == "fault" {
				req.Fault = &FaultSpec{GPRTransient: 1}
			}
			if _, err := s.Submit(req); err == nil || !strings.Contains(err.Error(), "does not fit") {
				t.Errorf("%s job over an image at 0x%x: err %v, want a RAM-fit rejection", typ, seg.Addr, err)
			}
		}
	}
}

// TestBinCacheBounded: the per-binary cache keeps at most binCacheSize
// entries, dropping the least recently used, so a binary reused in
// between one-off binaries stays cached.
func TestBinCacheBounded(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	job := func(i int) *Job {
		j, err := s.buildJob(Request{Type: "run", Source: fmt.Sprintf("\tli a0, %d\n\tebreak\n", i)})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	reused := job(-1)
	want := s.bin(reused)
	first := s.bin(job(0))
	for i := 1; i <= binCacheSize; i++ {
		s.bin(job(i))
		if s.bin(reused) != want {
			t.Fatalf("reused binary missed after %d one-off binaries", i)
		}
	}
	s.binMu.Lock()
	n := len(s.bins)
	s.binMu.Unlock()
	if n > binCacheSize {
		t.Errorf("%d cached binaries, want at most %d", n, binCacheSize)
	}
	if s.bin(job(0)) == first {
		t.Error("least recently used binary was not evicted")
	}
}

func TestQueueOverflowSheds(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueDepth: 2})
	release := make(chan struct{})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "ok", nil
	}
	defer close(release)

	xtea := src(t, "xtea")
	req := Request{Type: "run", Source: xtea}
	// One job occupies the worker; two fill the queue. There is a
	// window where the worker has not yet popped the first job, so
	// accept up to 3 before demanding the shed.
	accepted := 0
	var err error
	for i := 0; i < 4; i++ {
		if _, err = s.Submit(req); err != nil {
			break
		}
		accepted++
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("after %d accepts err = %v, want ErrQueueFull", accepted, err)
	}
	if shed := s.mShed.Value(); shed < 1 {
		t.Errorf("shed counter %v, want >=1", shed)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	started := make(chan struct{})
	var once sync.Once
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return "partial", ctx.Err()
	}
	st, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := s.Cancel(st.ID); !ok {
		t.Fatal("cancel: job unknown")
	}
	st = wait(t, s, st.ID)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if _, res, _ := s.Result(st.ID); res != "partial" {
		t.Errorf("partial result %v not preserved", res)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := newServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		<-release
		return "ok", nil
	}
	defer close(release)
	first, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := s.Cancel(queued.ID)
	if !ok || st.State != StateCancelled {
		t.Fatalf("queued cancel state %s ok=%v, want cancelled", st.State, ok)
	}
	_ = first
}

func TestPanicRecovery(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	boom := true
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		if boom {
			boom = false
			panic("analysis exploded")
		}
		return "fine", nil
	}
	xtea := src(t, "xtea")
	st, err := s.Submit(Request{Type: "run", Source: xtea})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, s, st.ID)
	if st.State != StateErrored || !strings.Contains(st.Error, "analysis exploded") {
		t.Fatalf("panicking job: state %s err %q", st.State, st.Error)
	}
	if s.mPanics.Value() != 1 {
		t.Errorf("panic counter %v, want 1", s.mPanics.Value())
	}
	// The worker survived the panic and still executes jobs.
	st2, err := s.Submit(Request{Type: "run", Source: xtea})
	if err != nil {
		t.Fatal(err)
	}
	if st2 = wait(t, s, st2.ID); st2.State != StateDone {
		t.Fatalf("post-panic job state %s", st2.State)
	}
}

func TestPermanentErrorDoesNotRetry(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	var calls int
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		calls++
		return nil, fmt.Errorf("deterministic failure")
	}
	st, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, s, st.ID)
	if st.State != StateErrored || calls != 1 {
		t.Fatalf("state %s calls %d, want errored after exactly 1 attempt", st.State, calls)
	}
}

func TestJobTimeout(t *testing.T) {
	s := newServer(t, Config{Workers: 1})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	st, err := s.Submit(Request{Type: "run", Source: src(t, "xtea"), TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	st = wait(t, s, st.ID)
	if st.State != StateErrored || !strings.Contains(st.Error, "timeout") {
		t.Fatalf("state %s err %q, want errored timeout", st.State, st.Error)
	}
}

func TestShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 2})
	w, _ := workloads.ByName("xtea")
	var ids []string
	for i := 0; i < 4; i++ {
		st, err := s.Submit(Request{Type: "run", Source: w.Source, Budget: w.Budget})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		st, _ := s.Job(id)
		if st.State != StateDone {
			t.Errorf("job %s state %s after drain, want done", id, st.State)
		}
	}
	if _, err := s.Submit(Request{Type: "run", Source: w.Source}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after shutdown err = %v, want ErrDraining", err)
	}
}

func TestShutdownDeadlineCancelsRunning(t *testing.T) {
	s := New(Config{Workers: 1})
	s.execOverride = func(ctx context.Context, j *Job) (any, error) {
		<-ctx.Done() // only a cancelled context releases this job
		return nil, ctx.Err()
	}
	st, err := s.Submit(Request{Type: "run", Source: src(t, "xtea")})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("shutdown err %v, want deadline exceeded", err)
	}
	if st, _ = s.Job(st.ID); !st.State.terminal() {
		t.Errorf("running job state %s after forced shutdown", st.State)
	}
}

// isrReference runs the exact ISR-targeted campaign cmd/s4e-fault -isr
// would run, directly through the fault package.
func isrReference(t *testing.T, name string, spec FaultSpec, eng emu.Engine) *fault.Results {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok || w.Handler == "" {
		t.Fatalf("interrupt workload %s missing", name)
	}
	prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	tg := &fault.Target{
		Program: prog, Budget: w.Budget, Engine: eng,
		Profile: timing.EdgeSmall(),
		Sensor:  w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
		LatencyBudget: spec.LatencyBudget,
	}
	g, err := fault.RunGolden(tg)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewISRPlan(prog, w.Handler, fault.ISRPlanConfig{
		Seed:         spec.Seed,
		GPRTransient: spec.GPRTransient,
		GPRPermanent: spec.GPRPermanent,
		MemPermanent: spec.MemPermanent,
		CodeBitflip:  spec.CodeBitflip,
		GoldenInsts:  g.Insts,
		StackTop:     tg.StackTop(),
		StackBytes:   spec.StackBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fault.CampaignOpt(tg, plan, fault.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestISRFaultServiceMatchesCLI pins the service half of the ISR
// campaign determinism contract: the ISR-targeted, latency-classified
// campaign submitted through the service is classification-identical,
// mutant by mutant, to the direct fault-package run — on every
// translated engine — and the outcome vector is engine-invariant.
func TestISRFaultServiceMatchesCLI(t *testing.T) {
	w, _ := workloads.ByName("pid_timer")
	spec := FaultSpec{
		Seed: 42, GPRTransient: 12, GPRPermanent: 4, MemPermanent: 8,
		CodeBitflip: 8, ISRHandler: w.Handler, LatencyBudget: 3000,
	}
	s := newServer(t, Config{Workers: 2})

	var first []string
	for _, eng := range emu.EngineNames() {
		e, err := emu.ParseEngine(eng)
		if err != nil {
			t.Fatal(err)
		}
		ref := isrReference(t, "pid_timer", spec, e)
		st, err := s.Submit(Request{
			Type: "fault", Source: w.Source, Budget: w.Budget, Engine: eng,
			Sensor: w.Sensor, Stream: w.Stream, UARTIn: string(w.UARTIn),
			Fault: &spec,
		})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if st = wait(t, s, st.ID); st.State != StateDone {
			t.Fatalf("%s: job state %s (err %q)", eng, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		fr, ok := res.(FaultResult)
		if !ok {
			t.Fatalf("%s: result type %T", eng, res)
		}
		if fr.Total != ref.Total || len(fr.Details) != len(ref.Details) {
			t.Fatalf("%s: %d mutants, want %d", eng, fr.Total, ref.Total)
		}
		for i, o := range fr.Details {
			if o != ref.Details[i].String() {
				t.Errorf("%s: mutant %d classified %s, CLI classified %s",
					eng, i, o, ref.Details[i])
			}
		}
		if fr.ByOutcome["latency-viol"] == 0 {
			t.Errorf("%s: no latency violations under a 3000-cycle budget", eng)
		}
		if first == nil {
			first = fr.Details
			continue
		}
		for i, o := range fr.Details {
			if o != first[i] {
				t.Errorf("%s: mutant %d classified %s, first engine classified %s",
					eng, i, o, first[i])
			}
		}
	}
}

// TestIRTJob runs the interrupt-response-time qualification as a
// service job over a named demonstrator and over the same source
// submitted as a custom program: both must come back sound, and the
// measured campaigns must be bit-identical (the custom path feeds the
// same stimuli through the request).
func TestIRTJob(t *testing.T) {
	s := newServer(t, Config{Workers: 2})
	w, _ := workloads.ByName("pid_timer")

	named, err := s.Submit(Request{
		Type: "irt",
		IRQ:  &IRQSpec{Workload: "pid_timer", Samples: 8, Seed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	custom, err := s.Submit(Request{
		Type: "irt", Source: w.Source, Budget: w.Budget,
		Sensor: w.Sensor, Stream: w.Stream, UARTIn: string(w.UARTIn),
		Bounds: w.LoopBounds,
		IRQ: &IRQSpec{
			Handler: w.Handler, Expect: w.Expect, Samples: 8, Seed: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	results := make([]*flow.IRTResult, 2)
	for i, st := range []Status{named, custom} {
		st = wait(t, s, st.ID)
		if st.State != StateDone {
			t.Fatalf("irt job %d state %s (err %q)", i, st.State, st.Error)
		}
		_, res, _ := s.Result(st.ID)
		r, ok := res.(*flow.IRTResult)
		if !ok {
			t.Fatalf("irt job %d result type %T", i, res)
		}
		if !r.Sound {
			t.Errorf("irt job %d unsound: bound %d, observed max %d",
				i, r.Static.Bound, r.Measured.MaxLatency)
		}
		if r.Measured.Delivered == 0 {
			t.Errorf("irt job %d delivered no interrupts", i)
		}
		if r.Measured.Mismatches != 0 {
			t.Errorf("irt job %d: %d co-sim mismatches", i, r.Measured.Mismatches)
		}
		results[i] = r
	}
	if results[0].Static.Bound != results[1].Static.Bound {
		t.Errorf("bounds differ: workload %d, custom %d",
			results[0].Static.Bound, results[1].Static.Bound)
	}
	if results[0].Measured.MaxLatency != results[1].Measured.MaxLatency {
		t.Errorf("measurements differ: workload max %d, custom max %d",
			results[0].Measured.MaxLatency, results[1].Measured.MaxLatency)
	}
}
