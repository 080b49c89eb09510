package vp_test

import (
	"bytes"
	"encoding/binary"
	"runtime"
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

// TestLoadELFRoundTrip: an ELF executable loads through ProgramFromELF
// and LoadProgram and runs. Its empty segment far below RAM places no
// byte, so it neither widens the image nor stops the load.
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
		Segments: []elf.Segment{{Addr: 0}, {Addr: prog.Org, Data: prog.Bytes}},
		Symbols:  prog.Symbols,
	})
	p, err := vp.New(vp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := vp.ProgramFromELF(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != prog.Entry || got.Org != prog.Org || !bytes.Equal(got.Bytes, prog.Bytes) {
		t.Errorf("flattened image: org 0x%x entry 0x%x, %d bytes; want 0x%x, 0x%x, %d",
			got.Org, got.Entry, len(got.Bytes), prog.Org, prog.Entry, len(prog.Bytes))
	}
	if err := p.LoadProgram(got); err != nil {
		t.Fatal(err)
	}
	stop := p.Run(1000)
	if stop.Reason != emu.StopExit || stop.Code != 5 {
		t.Errorf("stop = %v", stop)
	}
}

func TestLoadELFRejectsOutOfRAM(t *testing.T) {
	p, _ := vp.New(vp.Config{})
	prog, err := vp.ProgramFromELF(elf.Write(&elf.Image{
		Entry:    0x1000,
		Segments: []elf.Segment{{Addr: 0x1000, Data: []byte{1, 2, 3, 4}}},
		Symbols:  map[string]uint32{},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.LoadProgram(prog); err == nil {
		t.Error("segment outside RAM should fail to load")
	}
}

// maxELFImage is vp's cap on a flattened ELF image.
const maxELFImage = 32 << 20

// TestProgramFromELFOverflow pins the uint32-wrap fix in ProgramFromELF:
// a segment whose end wraps the 32-bit address space used to pass the
// span check and panic in the copy; it must be rejected cleanly, while
// a segment legitimately ending exactly at 2^32 stays loadable.
func TestProgramFromELFOverflow(t *testing.T) {
	mk := func(segs ...elf.Segment) []byte {
		img := &elf.Image{Segments: segs}
		if len(segs) > 0 {
			img.Entry = segs[0].Addr
		}
		return elf.Write(img)
	}
	cases := []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"wraps top of address space",
			mk(elf.Segment{Addr: 0xFFFFFFF0, Data: make([]byte, 0x20)}), "overflows"},
		{"wraps by one byte",
			mk(elf.Segment{Addr: 0xFFFFFFFF, Data: make([]byte, 2)}), "overflows"},
		{"wraps far past zero",
			mk(elf.Segment{Addr: 0xFFFF0000, Data: make([]byte, 0x20000)}), "overflows"},
		{"span too large",
			mk(elf.Segment{Addr: 0, Data: []byte{1}},
				elf.Segment{Addr: 0xFFFF0000, Data: []byte{1}}), "exceeds"},
		{"no segments", mk(), "no loadable segments"},
		{"only empty segments", mk(elf.Segment{Addr: 0x1000}), "no loadable segments"},
		{"not an ELF", []byte("\x7fELF"), "bad magic"},
		{"exact top fit",
			mk(elf.Segment{Addr: 0xFFFFFF00, Data: make([]byte, 0x100)}), ""},
		{"two segments merge",
			mk(elf.Segment{Addr: 0x1000, Data: []byte{1, 2, 3, 4}},
				elf.Segment{Addr: 0x2000, Data: []byte{5, 6}}), ""},
	}
	for _, c := range cases {
		p, err := vp.ProgramFromELF(c.data)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.wantErr)
		}
		if p != nil {
			t.Errorf("%s: got a program alongside the error", c.name)
		}
	}
}

// TestProgramFromELFChecksMemSizeFirst: a 338-byte ELF whose one
// segment claims a 64 MiB memory size is rejected by the span cap
// before any of that memory is allocated, and a bss tail within the cap
// is zero-filled behind the file bytes.
func TestProgramFromELFChecksMemSizeFirst(t *testing.T) {
	// withMemSize writes a one-segment ELF and patches its p_memsz.
	withMemSize := func(data []byte, memsz uint32) []byte {
		b := elf.Write(&elf.Image{Entry: vp.RAMBase, Segments: []elf.Segment{{Addr: vp.RAMBase, Data: data}}})
		binary.LittleEndian.PutUint32(b[52+20:], memsz)
		return b
	}
	huge := withMemSize([]byte{1, 2, 3, 4}, 64<<20)
	if len(huge) != 338 {
		t.Fatalf("hostile ELF is %d bytes, want 338", len(huge))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := vp.ProgramFromELF(huge)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("err %v, want span-cap rejection", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("rejecting the ELF allocated %d bytes, want under 1 MiB", n)
	}

	prog, err := vp.ProgramFromELF(withMemSize([]byte{1, 2}, 8))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prog.Bytes, []byte{1, 2, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("bss segment flattened to % x", prog.Bytes)
	}
}

// FuzzProgramFromELF drives segment geometry through the flattener: no
// input may panic, and accepted images must respect the span bound.
func FuzzProgramFromELF(f *testing.F) {
	f.Add(uint32(0x1000), uint16(64), uint32(0x2000), uint16(32))
	f.Add(uint32(0xFFFFFFF0), uint16(0x20), uint32(0), uint16(0))
	f.Add(uint32(0xFFFFFFFF), uint16(2), uint32(0xFFFF0000), uint16(1))
	f.Add(uint32(0), uint16(1), uint32(0xFFFFFFFE), uint16(4))
	f.Fuzz(func(t *testing.T, a1 uint32, n1 uint16, a2 uint32, n2 uint16) {
		data := elf.Write(&elf.Image{Segments: []elf.Segment{
			{Addr: a1, Data: make([]byte, n1)},
			{Addr: a2, Data: make([]byte, n2)},
		}})
		p, err := vp.ProgramFromELF(data)
		if err != nil {
			return
		}
		if len(p.Bytes) > maxELFImage {
			t.Fatalf("accepted image of %d bytes (addrs 0x%x+%d, 0x%x+%d)",
				len(p.Bytes), a1, n1, a2, n2)
		}
	})
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
