package dev

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/mem"
)

func TestUARTTransmit(t *testing.T) {
	var out bytes.Buffer
	u := NewUART(&out)
	for _, b := range []byte("hi\n") {
		if !u.Store(UARTTxData, 1, uint32(b)) {
			t.Fatal("transmit refused")
		}
	}
	if out.String() != "hi\n" {
		t.Errorf("writer got %q", out.String())
	}
	if u.Output() != "hi\n" {
		t.Errorf("Output() = %q", u.Output())
	}
}

func TestUARTReceive(t *testing.T) {
	u := NewUART(nil)
	if st, _ := u.Load(UARTStatus, 4); st&2 != 0 {
		t.Error("rx-avail set on empty queue")
	}
	if v, _ := u.Load(UARTRxData, 4); v != 0xffffffff {
		t.Error("empty rx should read 0xffffffff")
	}
	u.Feed([]byte{0x41, 0x42})
	if st, _ := u.Load(UARTStatus, 4); st&2 == 0 {
		t.Error("rx-avail clear with data queued")
	}
	if v, _ := u.Load(UARTRxData, 4); v != 0x41 {
		t.Errorf("rx = 0x%x, want 0x41", v)
	}
	if v, _ := u.Load(UARTRxData, 4); v != 0x42 {
		t.Errorf("rx = 0x%x, want 0x42", v)
	}
	if v, _ := u.Load(UARTRxData, 4); v != 0xffffffff {
		t.Error("drained rx should read 0xffffffff")
	}
}

func TestUARTBadOffset(t *testing.T) {
	u := NewUART(nil)
	if _, ok := u.Load(0x40, 4); ok {
		t.Error("bad load offset should be refused")
	}
	if u.Store(0x40, 4, 0) {
		t.Error("bad store offset should be refused")
	}
}

// TestBadOffsetAllocatesNothing: a device refuses an access at an
// unmapped offset with a plain ok=false, so a guest that pokes a hole in
// a device window in a loop costs the allocator nothing.
func TestBadOffsetAllocatesNothing(t *testing.T) {
	devs := map[string]mem.Device{
		"uart":   NewUART(nil),
		"clint":  NewCLINT(),
		"syscon": &SysCon{},
		"sensor": NewSensor(nil),
		"dma":    NewDMAStream(nil),
		"plic":   NewPLIC(),
	}
	for name, d := range devs {
		ok := true
		if n := testing.AllocsPerRun(100, func() {
			_, lok := d.Load(0xff0, 4)
			ok = lok || d.Store(0xff0, 4, 0)
		}); n != 0 {
			t.Errorf("%s: %v allocations per refused access, want 0", name, n)
		}
		if ok {
			t.Errorf("%s: offset 0xff0 was not refused", name)
		}
	}
}

// TestUARTTransmitAllocatesNothing: transmitting a byte to a console
// writer costs the allocator nothing once the retained output has room.
func TestUARTTransmitAllocatesNothing(t *testing.T) {
	u := NewUART(io.Discard)
	for i := 0; i < 1024; i++ { // grow the retained output, then empty it
		u.Store(UARTTxData, 1, 'x')
	}
	u.Restore(UARTState{})
	if n := testing.AllocsPerRun(100, func() {
		if !u.Store(UARTTxData, 1, 'x') {
			t.Fatal("transmit refused")
		}
	}); n != 0 {
		t.Errorf("%v allocations per transmitted byte, want 0", n)
	}
}

func TestCLINTTimer(t *testing.T) {
	c := NewCLINT()
	if c.TimerPending() {
		t.Error("timer pending at reset (mtimecmp should be all-ones)")
	}
	// Program mtimecmp = 100.
	c.Store(CLINTMtimecmp, 4, 100)
	c.Store(CLINTMtimecmpH, 4, 0)
	if c.TimerPending() {
		t.Error("timer pending before mtime reaches mtimecmp")
	}
	c.Advance(99)
	if c.TimerPending() {
		t.Error("pending at mtime=99 < 100")
	}
	c.Advance(1)
	if !c.TimerPending() {
		t.Error("not pending at mtime=100")
	}
	if v, _ := c.Load(CLINTMtime, 4); v != 100 {
		t.Errorf("mtime = %d", v)
	}
	if ev, ok := c.NextTimerEvent(); ok {
		t.Errorf("NextTimerEvent while pending = %d, true", ev)
	}
}

func TestCLINTNextTimerEvent(t *testing.T) {
	c := NewCLINT()
	if _, ok := c.NextTimerEvent(); ok {
		t.Error("unprogrammed timer should have no next event")
	}
	c.Store(CLINTMtimecmp, 4, 500)
	c.Store(CLINTMtimecmpH, 4, 0)
	ev, ok := c.NextTimerEvent()
	if !ok || ev != 500 {
		t.Errorf("NextTimerEvent = %d, %v; want 500, true", ev, ok)
	}
}

func TestCLINTSoftware(t *testing.T) {
	c := NewCLINT()
	if c.SoftwarePending() {
		t.Error("msip set at reset")
	}
	c.Store(CLINTMsip, 4, 1)
	if !c.SoftwarePending() {
		t.Error("msip not set after store")
	}
	if v, _ := c.Load(CLINTMsip, 4); v != 1 {
		t.Errorf("msip reads %d", v)
	}
	c.Store(CLINTMsip, 4, 0)
	if c.SoftwarePending() {
		t.Error("msip not cleared")
	}
}

func TestCLINT64BitRegisters(t *testing.T) {
	c := NewCLINT()
	c.Store(CLINTMtime, 4, 0xdeadbeef)
	c.Store(CLINTMtimeH, 4, 0x12345678)
	if c.Time() != 0x12345678deadbeef {
		t.Errorf("mtime = 0x%x", c.Time())
	}
	lo, _ := c.Load(CLINTMtime, 4)
	hi, _ := c.Load(CLINTMtimeH, 4)
	if lo != 0xdeadbeef || hi != 0x12345678 {
		t.Errorf("mtime halves = 0x%x 0x%x", lo, hi)
	}
	if _, ok := c.Load(0x9999, 4); ok {
		t.Error("bad offset should be refused")
	}
}

func TestSysConExit(t *testing.T) {
	var got *uint32
	s := &SysCon{OnExit: func(code uint32) { got = &code }}
	if !s.Store(SysConExit, 4, 42) {
		t.Fatal("exit store refused")
	}
	if got == nil || *got != 42 {
		t.Errorf("OnExit got %v", got)
	}
	if _, ok := s.Load(SysConExit, 4); !ok {
		t.Error("exit register should be readable (as zero)")
	}
	if s.Store(0x10, 4, 0) {
		t.Error("bad offset should be refused")
	}
	// Nil OnExit must not crash.
	(&SysCon{}).Store(SysConExit, 4, 1)
}

func TestSensorStreaming(t *testing.T) {
	s := NewSensor([]int16{10, -20, 30})
	if n, _ := s.Load(SensorCount, 4); n != 3 {
		t.Errorf("count = %d", n)
	}
	if v, _ := s.Load(SensorSample, 4); v != 10 {
		t.Errorf("sample = %d", v)
	}
	if v, _ := s.Load(SensorSample, 4); int32(v) != -20 {
		t.Errorf("sample = %d, want -20 sign-extended", int32(v))
	}
	if n, _ := s.Load(SensorCount, 4); n != 1 {
		t.Errorf("count = %d", n)
	}
	s.Load(SensorSample, 4)
	if v, _ := s.Load(SensorSample, 4); v != 0 {
		t.Errorf("drained sensor reads %d, want 0", v)
	}
	if s.Store(SensorSample, 4, 1) {
		t.Error("sensor must be read-only")
	}
}

// TestCLINTTimeFollowsClock checks that mtime reads as the clock plus
// an offset: guest stores and Advance move the offset, the clock keeps
// running under it, the next timer event is reported in clock units and
// a snapshot restores the offset, not a stale absolute time.
func TestCLINTTimeFollowsClock(t *testing.T) {
	var clock uint64
	c := NewCLINT()
	c.Now = func() uint64 { return clock }
	clock = 40
	if c.Time() != 40 {
		t.Fatalf("mtime = %d at clock 40", c.Time())
	}
	c.Store(CLINTMtime, 4, 100) // offset 60
	clock = 50
	if v, _ := c.Load(CLINTMtime, 4); v != 110 {
		t.Errorf("mtime = %d at clock 50 after writing 100 at clock 40, want 110", v)
	}
	c.Advance(5) // offset 65
	c.Store(CLINTMtimecmp, 4, 200)
	c.Store(CLINTMtimecmpH, 4, 0)
	if at, ok := c.NextTimerEvent(); !ok || at != 135 {
		t.Errorf("NextTimerEvent = %d, %v; want clock 135, true", at, ok)
	}
	s := c.Snapshot()
	clock = 134
	if c.TimerPending() {
		t.Error("timer pending at clock 134 (mtime 199)")
	}
	clock = 135
	if !c.TimerPending() {
		t.Error("timer not pending at clock 135 (mtime 200)")
	}
	c.Store(CLINTMtime, 4, 0)
	c.Restore(s)
	if c.Time() != 200 {
		t.Errorf("restored mtime = %d at clock 135, want the snapshot's offset (200)", c.Time())
	}
}
