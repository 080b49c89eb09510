package qta_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/qta"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// irtPin is the recorded outcome of one demonstrator's adversarial IRT
// campaign (edge-small profile, 24 samples, seed 1).
type irtPin struct {
	delivered  int
	maxLatency uint64
	maxTrigger uint64
	stream     uint64 // FNV-64a over every (trigger, latency) observation
}

// irtPins were recorded before interrupt delivery became event-driven;
// every engine must keep reproducing them exactly.
var irtPins = map[string]irtPin{
	"pid_timer":  {delivered: 24, maxLatency: 158, maxTrigger: 9603, stream: 17138808328984074833},
	"dma_stream": {delivered: 20, maxLatency: 492, maxTrigger: 712, stream: 5852307381159665656},
	"uart_cmd":   {delivered: 23, maxLatency: 400, maxTrigger: 42, stream: 4584358407103057676},
}

// TestIRTObservationStreamsPinned pins the full observation stream of
// qta.MeasureIRT — every trigger cycle and the latency measured for it —
// for the three interrupt demonstrators on every engine. Soundness tests
// only check bound >= observed, so a change to when interrupts are
// delivered would pass them; it cannot pass this.
func TestIRTObservationStreamsPinned(t *testing.T) {
	prof := timing.EdgeSmall()
	for _, w := range workloads.Interrupt() {
		prog, err := asm.AssembleAt(vp.Prelude+w.Source, vp.RAMBase)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, engine := range emu.Engines() {
			t.Run(engine.String()+"/"+w.Name, func(t *testing.T) {
				build := func() (*vp.Platform, error) {
					p, err := vp.New(vp.Config{Profile: prof, Sensor: w.Sensor, Stream: w.Stream, UARTIn: w.UARTIn})
					if err != nil {
						return nil, err
					}
					if err := p.LoadProgram(prog); err != nil {
						return nil, err
					}
					p.Machine.Engine = engine
					return p, nil
				}
				m, err := qta.MeasureIRT(context.Background(), build, w.Budget, w.Expect, 24, 1)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				for _, o := range m.Observations {
					var b [16]byte
					binary.LittleEndian.PutUint64(b[:8], o.Trigger)
					binary.LittleEndian.PutUint64(b[8:], o.Latency)
					h.Write(b[:])
				}
				got := irtPin{m.Delivered, m.MaxLatency, m.MaxTrigger, h.Sum64()}
				if want := irtPins[w.Name]; got != want {
					t.Errorf("IRT stream changed:\n got %+v\nwant %+v", got, want)
				}
				if m.Mismatches != 0 {
					t.Errorf("%d perturbed runs produced a wrong checksum", m.Mismatches)
				}
			})
		}
	}
}
