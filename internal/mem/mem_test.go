package mem

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func mustMap(t *testing.T, b *Bus, base, size uint32, d Device, name string) {
	t.Helper()
	if err := b.Map(base, size, d, name); err != nil {
		t.Fatal(err)
	}
}

func TestRAMLoadStoreAllSizes(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x8000_0000, 0x1000, NewRAM(0x1000), "ram")

	if f := b.Store(0x8000_0000, 4, 0x11223344); f.Raised {
		t.Fatal(f)
	}
	cases := []struct {
		addr uint32
		size uint8
		want uint32
	}{
		{0x8000_0000, 4, 0x11223344},
		{0x8000_0000, 2, 0x3344},
		{0x8000_0002, 2, 0x1122},
		{0x8000_0000, 1, 0x44},
		{0x8000_0003, 1, 0x11},
	}
	for _, c := range cases {
		v, f := b.Load(c.addr, c.size)
		if f.Raised {
			t.Fatalf("load 0x%x/%d: %v", c.addr, c.size, f)
		}
		if v != c.want {
			t.Errorf("load 0x%x/%d = 0x%x, want 0x%x", c.addr, c.size, v, c.want)
		}
	}
}

func TestLittleEndianStoreByte(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0, 16, NewRAM(16), "ram")
	b.Store(0, 1, 0xaa)
	b.Store(1, 1, 0xbb)
	b.Store(2, 2, 0xccdd)
	v, _ := b.Load(0, 4)
	if v != 0xccddbbaa {
		t.Errorf("got 0x%08x, want 0xccddbbaa", v)
	}
}

func TestUnmappedAccessFaults(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x1000, 0x1000, NewRAM(0x1000), "ram")

	if _, f := b.Load(0x0, 4); !f.Raised || f.Cause != isa.ExcLoadAccessFault {
		t.Errorf("load unmapped: %v", f)
	}
	if f := b.Store(0x3000, 4, 0); !f.Raised || f.Cause != isa.ExcStoreAccessFault {
		t.Errorf("store unmapped: %v", f)
	}
	if _, f := b.LoadKind(Fetch, 0x0, 2); !f.Raised || f.Cause != isa.ExcInstAccessFault {
		t.Errorf("fetch unmapped: %v", f)
	}
	// Straddling the end of a region is a fault too.
	if _, f := b.Load(0x1ffe, 4); !f.Raised {
		t.Error("straddling load should fault")
	}
}

func TestMisalignedFaults(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0, 0x100, NewRAM(0x100), "ram")
	if _, f := b.Load(1, 4); !f.Raised || f.Cause != isa.ExcLoadAddrMisaligned {
		t.Errorf("misaligned word load: %v", f)
	}
	if _, f := b.Load(1, 2); !f.Raised || f.Cause != isa.ExcLoadAddrMisaligned {
		t.Errorf("misaligned half load: %v", f)
	}
	if f := b.Store(2, 4, 0); !f.Raised || f.Cause != isa.ExcStoreAddrMisaligned {
		t.Errorf("misaligned word store: %v", f)
	}
	if _, f := b.Fetch16(1); !f.Raised || f.Cause != isa.ExcInstAddrMisaligned {
		t.Errorf("misaligned fetch: %v", f)
	}
	// Byte accesses are never misaligned.
	if _, f := b.Load(3, 1); f.Raised {
		t.Errorf("byte load: %v", f)
	}
}

// TestFaultingAccessAllocatesNothing: a faulting access returns its
// fault by value, so a guest that faults in a loop (a hung fault-campaign
// mutant) costs the allocator nothing.
func TestFaultingAccessAllocatesNothing(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x1000, 0x1000, NewRAM(0x1000), "ram")
	cases := []struct {
		name   string
		access func() Fault
		cause  uint32
	}{
		{"load/access", func() Fault { _, f := b.Load(0x0, 4); return f }, isa.ExcLoadAccessFault},
		{"store/access", func() Fault { return b.Store(0x3000, 4, 0) }, isa.ExcStoreAccessFault},
		{"fetch/access", func() Fault { _, f := b.Fetch16(0x0); return f }, isa.ExcInstAccessFault},
		{"load/misaligned", func() Fault { _, f := b.Load(0x1001, 4); return f }, isa.ExcLoadAddrMisaligned},
		{"store/misaligned", func() Fault { return b.Store(0x1002, 4, 0) }, isa.ExcStoreAddrMisaligned},
		{"fetch/misaligned", func() Fault { _, f := b.Fetch16(0x1001); return f }, isa.ExcInstAddrMisaligned},
	}
	for _, c := range cases {
		var f Fault
		if n := testing.AllocsPerRun(100, func() { f = c.access() }); n != 0 {
			t.Errorf("%s: %v allocations per access, want 0", c.name, n)
		}
		if !f.Raised || f.Cause != c.cause {
			t.Errorf("%s: fault %+v, want cause %d", c.name, f, c.cause)
		}
	}
}

func TestOverlapRejected(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x1000, 0x1000, NewRAM(0x1000), "a")
	if err := b.Map(0x1800, 0x1000, NewRAM(0x1000), "b"); err == nil {
		t.Error("overlapping map should fail")
	}
	if err := b.Map(0x0, 0x1001, NewRAM(0x2000), "c"); err == nil {
		t.Error("overlapping map should fail")
	}
	if err := b.Map(0x2000, 0x100, NewRAM(0x100), "d"); err != nil {
		t.Errorf("adjacent map should succeed: %v", err)
	}
	if err := b.Map(0xffffffff, 2, NewRAM(2), "wrap"); err == nil {
		t.Error("wrapping region should fail")
	}
	if err := b.Map(0x5000, 0, NewRAM(1), "empty"); err == nil {
		t.Error("empty region should fail")
	}
}

func TestMultiRegionDispatch(t *testing.T) {
	var b Bus
	r1, r2 := NewRAM(0x100), NewRAM(0x100)
	mustMap(t, &b, 0x1000, 0x100, r1, "r1")
	mustMap(t, &b, 0x3000, 0x100, r2, "r2")
	b.Store(0x1000, 4, 1)
	b.Store(0x3000, 4, 2)
	if v, _ := b.Load(0x1000, 4); v != 1 {
		t.Error("r1 corrupted")
	}
	if v, _ := b.Load(0x3000, 4); v != 2 {
		t.Error("r2 corrupted")
	}
	if got := b.Regions(); len(got) != 2 {
		t.Errorf("Regions() = %v", got)
	}
}

func TestWriteReadBytes(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x100, 0x100, NewRAM(0x100), "ram")
	data := []byte{1, 2, 3, 4, 5}
	if err := b.WriteBytes(0x140, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 5)
	if err := b.ReadBytes(0x140, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], data[i])
		}
	}
	if err := b.WriteBytes(0x1fe, data); err == nil {
		t.Error("WriteBytes past region end should fail")
	}
	if err := b.ReadBytes(0x0, got[:1]); err == nil {
		t.Error("ReadBytes outside RAM should fail")
	}
}

// TestWriteBytesNotify: host-side bulk writes must be observable — the
// full range on success, the written prefix on failure — so the
// emulator's dirty-state tracking sees loader/harness writes.
func TestWriteBytesNotify(t *testing.T) {
	var b Bus
	mustMap(t, &b, 0x100, 0x100, NewRAM(0x100), "ram")
	type rng struct{ lo, hi uint32 }
	var got []rng
	b.WriteNotify = func(lo, hi uint32) { got = append(got, rng{lo, hi}) }

	if err := b.WriteBytes(0x140, []byte{1, 2, 3, 4, 5}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != (rng{0x140, 0x145}) {
		t.Fatalf("notify after full write: %+v, want [{0x140 0x145}]", got)
	}

	got = nil
	if err := b.WriteBytes(0x1fe, []byte{1, 2, 3}); err == nil {
		t.Fatal("WriteBytes past region end should fail")
	}
	// Two bytes landed (0x1fe, 0x1ff) before the third fell off the
	// region; exactly that prefix must be reported.
	if len(got) != 1 || got[0] != (rng{0x1fe, 0x200}) {
		t.Fatalf("notify after partial write: %+v, want [{0x1fe 0x200}]", got)
	}

	got = nil
	if err := b.WriteBytes(0x140, nil); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty write must not notify, got %+v", got)
	}
}

// Property: for any word value and aligned offset, store-then-load is an
// identity through the bus.
func TestQuickStoreLoadIdentity(t *testing.T) {
	var b Bus
	ram := NewRAM(0x10000)
	mustMap(t, &b, 0, 0x10000, ram, "ram")
	f := func(off uint16, val uint32) bool {
		addr := uint32(off) &^ 3
		if b.Store(addr, 4, val).Raised {
			return false
		}
		v, fault := b.Load(addr, 4)
		return !fault.Raised && v == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestFaultError(t *testing.T) {
	f := Fault{Cause: isa.ExcLoadAccessFault, Addr: 0x1234, Raised: true}
	if f.Error() == "" {
		t.Error("empty fault message")
	}
}

func BenchmarkBusLoad(b *testing.B) {
	var bus Bus
	bus.Map(0x8000_0000, 1<<20, NewRAM(1<<20), "ram")
	for i := 0; i < b.N; i++ {
		bus.Load(0x8000_0000+uint32(i)&0xfffc, 4)
	}
}

func TestRAMFreeListHoldsOneBufferPerSize(t *testing.T) {
	const size = 0x3000 // used by no other test
	a, b := NewRAM(size), NewRAM(size)
	first := &a.Bytes()[0]
	a.Release()
	b.Release()
	a.Release() // a second Release is a no-op
	free.Lock()
	idle, ok := free.bufs[size]
	free.Unlock()
	if !ok || &idle[0] != first {
		t.Fatal("the free list does not hold the first released buffer")
	}
	if c := NewRAM(size); &c.Bytes()[0] != first {
		t.Error("NewRAM did not reuse the idle buffer")
	}
	if d := NewRAM(size); &d.Bytes()[0] == first || d.Size() != size {
		t.Error("the free list held more than one buffer of a size")
	}
	defer func() {
		if recover() == nil {
			t.Error("a released RAM did not panic on access")
		}
	}()
	a.Load(0, 4)
}

// TestRAMFreeListConcurrent shares the free list between goroutines, as
// campaign workers and service jobs do; run it under -race.
func TestRAMFreeListConcurrent(t *testing.T) {
	const size = 0x5000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := NewRAM(size)
				if r.Size() != size || r.Bytes()[size-1] != 0 {
					t.Error("NewRAM returned a wrong-sized or dirty buffer")
					return
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
}
