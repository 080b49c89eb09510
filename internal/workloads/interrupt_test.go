package workloads_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// runDemo executes one interrupt demonstrator on one engine and
// returns the platform after it stopped.
func runDemo(t *testing.T, w workloads.Workload, prof *timing.Profile, engine emu.Engine) (*vp.Platform, emu.StopInfo) {
	t.Helper()
	p, err := vp.New(vp.Config{
		Profile: prof,
		Sensor:  w.Sensor,
		Stream:  w.Stream,
		UARTIn:  w.UARTIn,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	p.Machine.Engine = engine
	return p, p.Run(w.Budget)
}

// TestInterruptDemonstrators checks every demonstrator reaches its
// reference checksum on every engine: the ISR-accumulated state is
// independent of where interrupt delivery lands, so even Step (which
// polls per instruction rather than per block) must agree exactly.
func TestInterruptDemonstrators(t *testing.T) {
	for _, w := range workloads.Interrupt() {
		for _, eng := range []emu.Engine{emu.EngineSwitch, emu.EngineSuperblock} {
			t.Run(w.Name+"/"+eng.String(), func(t *testing.T) {
				_, stop := runDemo(t, w, timing.EdgeSmall(), eng)
				if stop.Reason != emu.StopExit {
					t.Fatalf("stop = %+v, want exit", stop)
				}
				if stop.Code != w.Expect {
					t.Errorf("checksum = %#x, want %#x", stop.Code, w.Expect)
				}
			})
		}
		t.Run(w.Name+"/step", func(t *testing.T) {
			p, err := vp.New(vp.Config{
				Profile: timing.EdgeSmall(),
				Sensor:  w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.LoadSource(vp.Prelude + w.Source); err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < w.Budget; i++ {
				if stop := p.Machine.Step(); stop != nil {
					if stop.Reason != emu.StopExit || stop.Code != w.Expect {
						t.Fatalf("stop = %+v, want exit with %#x", stop, w.Expect)
					}
					return
				}
			}
			t.Fatal("budget exhausted without exit")
		})
	}
}

// TestInterruptByName checks ByName reaches the demonstrators.
func TestInterruptByName(t *testing.T) {
	for _, name := range []string{"pid_timer", "dma_stream", "uart_cmd"} {
		w, ok := workloads.ByName(name)
		if !ok || w.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, w.Name, ok)
		}
		if w.Handler == "" {
			t.Errorf("%s: no handler symbol", name)
		}
	}
	if _, ok := workloads.ByName("pid"); !ok {
		t.Error("batch workloads must stay reachable")
	}
}
