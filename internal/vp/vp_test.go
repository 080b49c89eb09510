package vp_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/elf"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

func TestDefaultsAndMemoryMap(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RAM.Size() != vp.DefaultRAMSize {
		t.Errorf("RAM size = %d", p.RAM.Size())
	}
	// Every mapped device must answer at its base.
	for _, addr := range []uint32{vp.SysConBase, vp.CLINTBase, vp.UARTBase, vp.SensorBase, vp.RAMBase} {
		if _, f := p.Machine.Bus.Load(addr, 4); f.Raised {
			t.Errorf("load at 0x%08x: %v", addr, f)
		}
	}
	// Holes fault.
	if _, f := p.Machine.Bus.Load(0x4000_0000, 4); !f.Raised {
		t.Error("unmapped hole should fault")
	}
}

// The prelude constants the assembly programs rely on must match the Go
// constants the devices are mapped at.
func TestPreludeConstantsConsistent(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+`
		.word UART_TX, SYSCON_EXIT, CLINT_MTIME, SENSOR_SAMPLE, CLINT_MSIP
	`, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	words := []uint32{vp.UARTBase, vp.SysConBase, vp.CLINTBase + 0xbff8, vp.SensorBase, vp.CLINTBase}
	for i, want := range words {
		got := uint32(prog.Bytes[4*i]) | uint32(prog.Bytes[4*i+1])<<8 |
			uint32(prog.Bytes[4*i+2])<<16 | uint32(prog.Bytes[4*i+3])<<24
		if got != want {
			t.Errorf("prelude constant %d = 0x%08x, want 0x%08x", i, got, want)
		}
	}
}

func TestLoadSourceRunsAtRAMBase(t *testing.T) {
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.LoadSource("li a0, 9\nebreak\n")
	if err != nil {
		t.Fatal(err)
	}
	if prog.Org != vp.RAMBase {
		t.Errorf("org = 0x%x", prog.Org)
	}
	if p.Machine.Hart.PC != prog.Entry {
		t.Error("PC not at entry after load")
	}
	if p.Machine.Hart.Reg(isa.SP) != vp.RAMBase+p.RAM.Size() {
		t.Error("SP not initialized to RAM top")
	}
	stop := p.Run(100)
	if stop.Reason != emu.StopEbreak || p.Machine.Hart.Reg(isa.A0) != 9 {
		t.Errorf("%v a0=%d", stop, p.Machine.Hart.Reg(isa.A0))
	}
}

func TestLoadELFRoundTrip(t *testing.T) {
	prog, err := asm.AssembleAt(vp.Prelude+`
_start:
	li a0, 5
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`, vp.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	data := elf.Write(&elf.Image{
		Entry:    prog.Entry,
		Segments: []elf.Segment{{Addr: prog.Org, Data: prog.Bytes}},
		Symbols:  prog.Symbols,
	})
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	img, err := p.LoadELF(data)
	if err != nil {
		t.Fatal(err)
	}
	if img.Entry != prog.Entry {
		t.Error("entry mismatch")
	}
	stop := p.Run(1000)
	if stop.Reason != emu.StopExit || stop.Code != 5 {
		t.Errorf("stop = %v", stop)
	}
}

func TestLoadELFRejectsOutOfRAM(t *testing.T) {
	p, _ := vp.New(vp.Config{})
	data := elf.Write(&elf.Image{
		Entry:    0x1000,
		Segments: []elf.Segment{{Addr: 0x1000, Data: []byte{1, 2, 3, 4}}},
		Symbols:  map[string]uint32{},
	})
	if _, err := p.LoadELF(data); err == nil {
		t.Error("segment outside RAM should fail to load")
	}
}

func TestConsoleStreaming(t *testing.T) {
	var buf bytes.Buffer
	p, err := vp.New(vp.Config{ConsoleOut: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + `
		li a0, 'X'
		li a1, UART_TX
		sw a0, 0(a1)
		ebreak
	`); err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	if buf.String() != "X" || p.Output() != "X" {
		t.Errorf("console %q, output %q", buf.String(), p.Output())
	}
}

func TestSensorPreload(t *testing.T) {
	p, err := vp.New(vp.Config{Sensor: []int16{-5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LoadSource(vp.Prelude + `
		li a1, SENSOR_SAMPLE
		lw a0, 0(a1)
		ebreak
	`); err != nil {
		t.Fatal(err)
	}
	p.Run(100)
	if int32(p.Machine.Hart.Reg(isa.A0)) != -5 {
		t.Errorf("sensor sample = %d", int32(p.Machine.Hart.Reg(isa.A0)))
	}
}

func TestAssemblyErrorsSurface(t *testing.T) {
	p, _ := vp.New(vp.Config{})
	_, err := p.LoadSource("bogus instruction here\n")
	if err == nil || !strings.Contains(err.Error(), "unknown instruction") {
		t.Errorf("err = %v", err)
	}
}
