package vp_test

import (
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/obs"
	"repro/internal/vp"
	"repro/internal/workloads"
)

const loopProg = `
_start:
	li a0, 0
	li a1, 200
loop:	add a0, a0, a1
	addi a1, a1, -1
	bnez a1, loop
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`

func TestEngineStatsAndRecord(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + loopProg); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(1_000_000)
	if stop.Reason != emu.StopExit {
		t.Fatalf("stopped with %v", stop)
	}
	es := p.Machine.Stats()
	if es.TBsCompiled == 0 {
		t.Error("no blocks compiled")
	}
	// The 200-iteration loop re-enters its block either through the
	// chain or the jump cache; both cannot be idle.
	if es.ChainFollows == 0 && es.JumpCacheHits == 0 {
		t.Errorf("hot loop used neither chaining nor jump cache: %+v", es)
	}
	if hr := es.JumpCacheHitRate(); hr < 0 || hr > 1 {
		t.Errorf("hit rate %v out of range", hr)
	}
	bs := p.Machine.Bus.Stats()
	if bs.Fetches == 0 {
		t.Errorf("no bus fetches recorded: %+v", bs)
	}
	if bs.Stores == 0 {
		t.Errorf("the syscon exit store must dispatch through the bus: %+v", bs)
	}

	r := obs.NewRegistry()
	p.RecordStats(r)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		vp.MetricTBsCompiled, vp.MetricInsts, vp.MetricCycles,
		vp.MetricBusFetches, vp.MetricBusStores,
	} {
		if !strings.Contains(out, name+" ") {
			t.Errorf("metrics output missing %s:\n%s", name, out)
		}
	}
	if c := r.Counter(vp.MetricInsts, ""); c.Value() != p.Machine.Hart.Instret {
		t.Errorf("recorded insts %d, hart %d", c.Value(), p.Machine.Hart.Instret)
	}
	// Recording a second platform accumulates.
	p.RecordStats(r)
	if c := r.Counter(vp.MetricInsts, ""); c.Value() != 2*p.Machine.Hart.Instret {
		t.Errorf("counters must accumulate across recordings: %d", c.Value())
	}
	// Nil registry is a no-op.
	p.RecordStats(nil)
}

// sensorProg streams eight sensor samples and exits with their sum. It
// touches no interrupt source: sensor reads do not advance the interrupt
// epoch.
const sensorProg = `
_start:
	li t0, SENSOR_SAMPLE
	li t1, 8
	li a0, 0
loop:	lw t2, 0(t0)
	add a0, a0, t2
	addi t1, t1, -1
	bnez t1, loop
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`

// TestFullPollsCounter checks that only programs using interrupts pay for
// full interrupt polls: a program streaming sensor samples polls the
// devices once, at its first block boundary, on every engine, while an
// interrupt-driven demonstrator polls them again at each device event.
func TestFullPollsCounter(t *testing.T) {
	pid, ok := workloads.ByName("pid_timer")
	if !ok {
		t.Fatal("pid_timer missing")
	}
	for _, engine := range emu.Engines() {
		t.Run(engine.String(), func(t *testing.T) {
			p, err := vp.New(vp.Config{Sensor: []int16{1, 2, 3, 4, 5, 6, 7, 8}})
			if err != nil {
				t.Fatal(err)
			}
			p.Machine.Engine = engine
			if _, err := p.LoadSource(vp.Prelude + sensorProg); err != nil {
				t.Fatal(err)
			}
			if stop := p.Run(10_000); stop.Reason != emu.StopExit || stop.Code != 36 {
				t.Fatalf("stopped with %v", stop)
			}
			if n := p.Machine.Stats().FullPolls; n != 1 {
				t.Errorf("interrupt-free program made %d full polls, want 1", n)
			}
			r := obs.NewRegistry()
			p.RecordStats(r)
			if c := r.Counter(vp.MetricIRQFullPolls, ""); c.Value() != 1 {
				t.Errorf("%s = %d, want 1", vp.MetricIRQFullPolls, c.Value())
			}

			q, err := vp.New(vp.Config{Sensor: pid.Sensor})
			if err != nil {
				t.Fatal(err)
			}
			q.Machine.Engine = engine
			if _, err := q.LoadSource(vp.Prelude + pid.Source); err != nil {
				t.Fatal(err)
			}
			if stop := q.Run(pid.Budget); stop.Reason != emu.StopExit || stop.Code != pid.Expect {
				t.Fatalf("pid_timer stopped with %v", stop)
			}
			es := q.Machine.Stats()
			if es.FullPolls < 2 || es.FullPolls*50 > q.Machine.Hart.Instret {
				t.Errorf("pid_timer made %d full polls over %d instructions", es.FullPolls, q.Machine.Hart.Instret)
			}
			q.RecordStats(r)
			if c := r.Counter(vp.MetricIRQFullPolls, ""); c.Value() != 1+es.FullPolls {
				t.Errorf("%s = %d, want %d", vp.MetricIRQFullPolls, c.Value(), 1+es.FullPolls)
			}
		})
	}
}

// TestIdleInstsCounter checks that the idle-loop fast-forward shows in
// the run statistics: most of pid_timer's instructions are skipped runs
// of its wfi loop, while crc32, a batch kernel with no idle loop, skips
// none.
func TestIdleInstsCounter(t *testing.T) {
	for _, name := range []string{"pid_timer", "crc32"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("%s missing", name)
		}
		p, err := vp.New(vp.Config{Sensor: w.Sensor})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
			t.Fatal(err)
		}
		if stop := p.Run(w.Budget); stop.Reason != emu.StopExit || stop.Code != w.Expect {
			t.Fatalf("%s stopped with %v", name, stop)
		}
		r := obs.NewRegistry()
		p.RecordStats(r)
		idle, insts := r.Counter(vp.MetricIdleInsts, "").Value(), p.Machine.Hart.Instret
		if idle != p.Machine.Stats().IdleInsts {
			t.Errorf("%s: %s = %d, engine counted %d", name, vp.MetricIdleInsts, idle, p.Machine.Stats().IdleInsts)
		}
		if name == "pid_timer" && 2*idle < insts || name == "crc32" && idle != 0 {
			t.Errorf("%s: %d of %d instructions fast-forwarded", name, idle, insts)
		}
		p.Release()
	}
}

func TestEngineStatsInvalidation(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + loopProg); err != nil {
		t.Fatal(err)
	}
	if stop := p.Run(1_000_000); stop.Reason != emu.StopExit {
		t.Fatalf("stopped with %v", stop)
	}
	before := p.Machine.Stats()
	p.Machine.InvalidateTBs()
	after := p.Machine.Stats()
	if after.TBsInvalidated <= before.TBsInvalidated {
		t.Errorf("flush did not count invalidations: %+v -> %+v", before, after)
	}
	if after.ChainsSevered <= before.ChainsSevered {
		t.Errorf("flush did not count severed chains: %+v -> %+v", before, after)
	}
}
