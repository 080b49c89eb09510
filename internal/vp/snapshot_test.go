package vp_test

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	p, err := vp.New(vp.Config{Sensor: []int16{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	src := vp.Prelude + `
		li a1, SENSOR_SAMPLE
		lw s0, 0(a1)        # consume one sample
		li a2, UART_TX
		li a3, 'A'
		sw a3, 0(a2)        # transmit one byte
		la a4, buf
		li a5, 77
		sw a5, 0(a4)        # dirty RAM
		ebreak
buf:	.word 0
	`
	prog, err := p.LoadSource(src)
	if err != nil {
		t.Fatal(err)
	}
	base := p.Snapshot()

	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("first run: %v", stop)
	}
	if p.Output() != "A" || p.Machine.Hart.Reg(isa.S0) != 1 {
		t.Fatalf("first run state: out=%q s0=%d", p.Output(), p.Machine.Hart.Reg(isa.S0))
	}

	p.RestoreReuse(base, prog)
	if p.Output() != "" {
		t.Error("UART output not rewound")
	}
	if p.Machine.Hart.Instret != 0 {
		t.Error("hart not rewound")
	}

	// Second run must be identical: same sensor sample (queue rewound),
	// same UART output, same RAM effects.
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("second run: %v", stop)
	}
	if p.Output() != "A" || p.Machine.Hart.Reg(isa.S0) != 1 {
		t.Errorf("second run diverged: out=%q s0=%d", p.Output(), p.Machine.Hart.Reg(isa.S0))
	}
}

func TestSnapshotRewindsRAM(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource(`
		la a0, buf
		li a1, 1
		sw a1, 0(a0)
		ebreak
buf:	.word 0
	`)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if stop := p.Run(1000); stop.Reason != emu.StopEbreak {
		t.Fatalf("run: %v", stop)
	}
	buf := prog.Symbols["buf"]
	data := make([]byte, 4)
	err = p.Machine.Bus.ReadBytes(buf, data)
	if err != nil || data[0] != 1 {
		t.Fatalf("store missing: %v % x", err, data)
	}
	p.RestoreReuse(snap, prog)
	err = p.Machine.Bus.ReadBytes(buf, data)
	if err != nil || data[0] != 0 {
		t.Errorf("RAM not rewound: % x", data)
	}
}

func TestSnapshotRewindsStopState(t *testing.T) {
	p, _ := vp.New(vp.Config{})
	prog, err := p.LoadSource(vp.Prelude + `
		li a0, 3
		li t6, SYSCON_EXIT
		sw a0, 0(t6)
1:	j 1b
	`)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if stop := p.Run(1000); stop.Reason != emu.StopExit || stop.Code != 3 {
		t.Fatalf("first run: %v", stop)
	}
	p.RestoreReuse(snap, prog)
	if stop := p.Run(1000); stop.Reason != emu.StopExit || stop.Code != 3 {
		t.Errorf("restored run: %v", stop)
	}
}
