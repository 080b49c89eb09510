// Package mem implements the physical memory system of the virtual
// platform: a bus that dispatches 1/2/4-byte accesses to mapped RAM and
// MMIO devices with RISC-V fault semantics (access faults for unmapped
// addresses, misaligned faults for unnatural alignment).
package mem

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/isa"
)

// Access distinguishes the three architectural access kinds; it selects
// the exception cause raised on a fault.
type Access uint8

const (
	Fetch Access = iota
	Load
	Store
)

func (a Access) String() string {
	switch a {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	}
	return "access?"
}

// Fault describes the outcome of a bus access in architectural terms.
// The bus returns it by value; the zero Fault (Raised false) is a
// successful access.
type Fault struct {
	Cause  uint32 // isa.Exc* code
	Addr   uint32 // faulting address (goes to mtval)
	Raised bool   // the access failed; Cause and Addr describe why
}

func (f Fault) Error() string {
	return fmt.Sprintf("mem: %s at 0x%08x", isa.ExcName(f.Cause), f.Addr)
}

func accessFault(kind Access, addr uint32) Fault {
	switch kind {
	case Fetch:
		return Fault{isa.ExcInstAccessFault, addr, true}
	case Load:
		return Fault{isa.ExcLoadAccessFault, addr, true}
	default:
		return Fault{isa.ExcStoreAccessFault, addr, true}
	}
}

func misaligned(kind Access, addr uint32) Fault {
	switch kind {
	case Fetch:
		return Fault{isa.ExcInstAddrMisaligned, addr, true}
	case Load:
		return Fault{isa.ExcLoadAddrMisaligned, addr, true}
	default:
		return Fault{isa.ExcStoreAddrMisaligned, addr, true}
	}
}

// Device is the target of MMIO accesses. Offsets are relative to the
// device's mapped base; size is 1, 2 or 4. A device refuses an access
// by returning ok=false, which the bus raises as an access fault. A
// refusal carries no message: the cause and address are all the hart
// sees.
type Device interface {
	Load(off uint32, size uint8) (val uint32, ok bool)
	Store(off uint32, size uint8, val uint32) (ok bool)
}

type region struct {
	base, size uint32
	dev        Device
	name       string
	ram        *RAM // non-nil fast path
}

// Bus dispatches physical accesses to mapped regions. Regions must not
// overlap. The zero Bus is empty and ready to use.
type Bus struct {
	regions []region

	// WriteNotify, when set, observes host writes into bus memory
	// (WriteBytes: the program loader, the DMA engine, injected faults)
	// as an absolute address range [lo, hi). The emulator installs its
	// host-write handler here, so such writes reach the rewind's dirty
	// state and the translation cache exactly as guest stores do. Guest
	// stores do not pass through it; the engines track those directly.
	WriteNotify func(lo, hi uint32)

	// stats counts dispatched accesses. Plain fields: the bus serves one
	// hart, and the increments are noise next to the region search. Note
	// the emulator's direct-RAM fast path bypasses the bus, so these are
	// bus dispatches (MMIO, fetches, unaligned/slow-path data), not total
	// guest accesses.
	stats BusStats
}

// BusStats counts the accesses the bus dispatched since construction.
type BusStats struct {
	Fetches uint64 // instruction fetches (16-bit parcels)
	Loads   uint64 // data loads
	Stores  uint64 // data stores
	Faults  uint64 // accesses that raised a memory fault
}

// Stats returns a snapshot of the bus access counters.
func (b *Bus) Stats() BusStats { return b.stats }

// Map adds a device at [base, base+size). It returns an error if the new
// region overlaps an existing one or wraps the address space.
func (b *Bus) Map(base, size uint32, dev Device, name string) error {
	if size == 0 || base+size < base {
		return fmt.Errorf("mem: region %q (0x%x+0x%x) empty or wraps", name, base, size)
	}
	for _, r := range b.regions {
		if base < r.base+r.size && r.base < base+size {
			return fmt.Errorf("mem: region %q overlaps %q", name, r.name)
		}
	}
	ram, _ := dev.(*RAM)
	b.regions = append(b.regions, region{base, size, dev, name, ram})
	sort.Slice(b.regions, func(i, j int) bool { return b.regions[i].base < b.regions[j].base })
	return nil
}

// find locates the region containing [addr, addr+size).
func (b *Bus) find(addr uint32, size uint8) *region {
	lo, hi := 0, len(b.regions)
	for lo < hi {
		mid := (lo + hi) / 2
		r := &b.regions[mid]
		switch {
		case addr < r.base:
			hi = mid
		case addr >= r.base+r.size:
			lo = mid + 1
		default:
			if addr+uint32(size) > r.base+r.size {
				return nil // access straddles the region end
			}
			return r
		}
	}
	return nil
}

// LoadKind performs a load or fetch of the given size.
func (b *Bus) LoadKind(kind Access, addr uint32, size uint8) (uint32, Fault) {
	if kind == Fetch {
		b.stats.Fetches++
	} else {
		b.stats.Loads++
	}
	if addr&uint32(size-1) != 0 {
		b.stats.Faults++
		return 0, misaligned(kind, addr)
	}
	r := b.find(addr, size)
	if r == nil {
		b.stats.Faults++
		return 0, accessFault(kind, addr)
	}
	if r.ram != nil {
		return r.ram.load(addr-r.base, size), Fault{}
	}
	v, ok := r.dev.Load(addr-r.base, size)
	if !ok {
		b.stats.Faults++
		return 0, accessFault(kind, addr)
	}
	return v, Fault{}
}

// Load performs a data load of the given size (1, 2 or 4 bytes).
func (b *Bus) Load(addr uint32, size uint8) (uint32, Fault) {
	return b.LoadKind(Load, addr, size)
}

// Fetch16 fetches one 16-bit instruction parcel.
func (b *Bus) Fetch16(addr uint32) (uint16, Fault) {
	v, f := b.LoadKind(Fetch, addr, 2)
	return uint16(v), f
}

// Store performs a data store of the given size (1, 2 or 4 bytes).
func (b *Bus) Store(addr uint32, size uint8, val uint32) Fault {
	b.stats.Stores++
	if addr&uint32(size-1) != 0 {
		b.stats.Faults++
		return misaligned(Store, addr)
	}
	r := b.find(addr, size)
	if r == nil {
		b.stats.Faults++
		return accessFault(Store, addr)
	}
	if r.ram != nil {
		r.ram.store(addr-r.base, size, val)
		return Fault{}
	}
	if !r.dev.Store(addr-r.base, size, val) {
		b.stats.Faults++
		return accessFault(Store, addr)
	}
	return Fault{}
}

// WriteBytes copies raw bytes into bus memory, for program loading and
// the DMA engine. It fails if any byte lands outside RAM. The written
// range (on error, the written prefix) is reported through WriteNotify
// when set, in one call.
func (b *Bus) WriteBytes(addr uint32, data []byte) error {
	n, ok := b.copyRAM(addr, data, true)
	if b.WriteNotify != nil && n > 0 {
		b.WriteNotify(addr, addr+uint32(n))
	}
	if !ok {
		return fmt.Errorf("mem: WriteBytes: 0x%08x not RAM", addr+uint32(n))
	}
	return nil
}

// ReadBytes fills dst from bus memory at addr, for result inspection and
// the DMA engine. It fails if any byte lies outside RAM.
func (b *Bus) ReadBytes(addr uint32, dst []byte) error {
	if n, ok := b.copyRAM(addr, dst, false); !ok {
		return fmt.Errorf("mem: ReadBytes: 0x%08x not RAM", addr+uint32(n))
	}
	return nil
}

// copyRAM copies between buf and the RAM at [addr, addr+len(buf)), into
// RAM when write is set, with one region lookup per RAM region the span
// touches. It returns how many bytes it copied, and ok=false when a byte
// outside RAM stopped it there. A released RAM panics.
func (b *Bus) copyRAM(addr uint32, buf []byte, write bool) (done int, ok bool) {
	for done < len(buf) {
		a := addr + uint32(done)
		r := b.find(a, 1)
		if r == nil || r.ram == nil {
			return done, false
		}
		off := a - r.base
		n := uint32(min(uint64(len(buf)-done), uint64(r.size-off)))
		ram := r.ram.bytes[off : off+n]
		if write {
			copy(ram, buf[done:])
		} else {
			copy(buf[done:], ram)
		}
		done += int(n)
	}
	return done, true
}

// DirectRAM returns the base address and backing bytes of the largest
// mapped RAM region, or (0, nil) when none is mapped. The emulator's
// compiled engine uses it as an inline fast path for aligned data
// accesses that stay inside RAM, bypassing the region search.
func (b *Bus) DirectRAM() (base uint32, bytes []byte) {
	for _, r := range b.regions {
		if r.ram != nil && len(r.ram.bytes) > len(bytes) {
			base, bytes = r.base, r.ram.bytes
		}
	}
	return base, bytes
}

// Regions describes the bus layout, for diagnostics.
func (b *Bus) Regions() []string {
	out := make([]string, len(b.regions))
	for i, r := range b.regions {
		out[i] = fmt.Sprintf("%-8s 0x%08x-0x%08x", r.name, r.base, r.base+r.size-1)
	}
	return out
}

// RAM is a plain byte-addressable memory, little-endian like RISC-V.
type RAM struct {
	bytes []byte
}

// free is the RAM free list: at most one idle, all-zero buffer per size,
// handed out by NewRAM and refilled by Release. One per size bounds what
// idle buffers add to the live heap (and so to the GC heap goal) at one
// buffer per platform size, where a sync.Pool would keep as many as were
// ever in use at once. Concurrent campaign workers and service jobs
// share it, hence the mutex.
var free = struct {
	sync.Mutex
	bufs map[uint32][]byte
}{bufs: map[uint32][]byte{}}

// NewRAM returns a zeroed RAM of the given size, reusing a released
// buffer of that size when one is idle.
func NewRAM(size uint32) *RAM {
	free.Lock()
	b, ok := free.bufs[size]
	delete(free.bufs, size)
	free.Unlock()
	if !ok {
		b = make([]byte, size)
	}
	return &RAM{bytes: b}
}

// Release hands the backing buffer back to NewRAM and detaches r: any
// later access through r panics. The caller guarantees the buffer is all
// zero again. Releasing a released RAM is a no-op.
func (r *RAM) Release() {
	b := r.bytes
	if b == nil {
		return
	}
	r.bytes = nil
	size := uint32(len(b))
	free.Lock()
	if _, ok := free.bufs[size]; !ok {
		free.bufs[size] = b
	}
	free.Unlock()
}

// Size returns the RAM capacity in bytes.
func (r *RAM) Size() uint32 { return uint32(len(r.bytes)) }

// Bytes exposes the backing store (nil once released). The fault
// injector uses this to flip bits; the loader uses it to place images.
func (r *RAM) Bytes() []byte { return r.bytes }

func (r *RAM) load(off uint32, size uint8) uint32 {
	b := r.bytes
	switch size {
	case 1:
		return uint32(b[off])
	case 2:
		return uint32(b[off]) | uint32(b[off+1])<<8
	default:
		return uint32(b[off]) | uint32(b[off+1])<<8 |
			uint32(b[off+2])<<16 | uint32(b[off+3])<<24
	}
}

func (r *RAM) store(off uint32, size uint8, val uint32) {
	b := r.bytes
	switch size {
	case 1:
		b[off] = byte(val)
	case 2:
		b[off] = byte(val)
		b[off+1] = byte(val >> 8)
	default:
		b[off] = byte(val)
		b[off+1] = byte(val >> 8)
		b[off+2] = byte(val >> 16)
		b[off+3] = byte(val >> 24)
	}
}

// Load implements Device (bounds were checked by the bus).
func (r *RAM) Load(off uint32, size uint8) (uint32, bool) {
	return r.load(off, size), true
}

// Store implements Device.
func (r *RAM) Store(off uint32, size uint8, val uint32) bool {
	r.store(off, size, val)
	return true
}
