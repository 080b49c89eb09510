// Package mem implements the physical memory system of the virtual
// platform: a bus that dispatches 1/2/4-byte accesses to mapped RAM and
// MMIO devices with RISC-V fault semantics (access faults for unmapped
// addresses, misaligned faults for unnatural alignment).
package mem

import (
	"fmt"
	"sort"

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

// Fault describes a failed memory access in architectural terms.
type Fault struct {
	Cause uint32 // isa.Exc* code
	Addr  uint32 // faulting address (goes to mtval)
}

func (f *Fault) Error() string {
	return fmt.Sprintf("mem: %s at 0x%08x", isa.ExcName(f.Cause), f.Addr)
}

func accessFault(kind Access, addr uint32) *Fault {
	switch kind {
	case Fetch:
		return &Fault{isa.ExcInstAccessFault, addr}
	case Load:
		return &Fault{isa.ExcLoadAccessFault, addr}
	default:
		return &Fault{isa.ExcStoreAccessFault, addr}
	}
}

func misaligned(kind Access, addr uint32) *Fault {
	switch kind {
	case Fetch:
		return &Fault{isa.ExcInstAddrMisaligned, addr}
	case Load:
		return &Fault{isa.ExcLoadAddrMisaligned, addr}
	default:
		return &Fault{isa.ExcStoreAddrMisaligned, addr}
	}
}

// Device is the target of MMIO accesses. Offsets are relative to the
// device's mapped base; size is 1, 2 or 4. Devices may return an error to
// signal an access fault.
type Device interface {
	Load(off uint32, size uint8) (uint32, error)
	Store(off uint32, size uint8, val uint32) error
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

	// WriteNotify, when set, observes host-side bulk writes into bus
	// memory (WriteBytes — program loaders, snapshot restores, injected
	// corruption) as an absolute address range [lo, hi). The emulator
	// points it at Machine.NoteRAMWriteRange so such writes are folded
	// into the store watermark and dirty-page bitmap instead of being
	// invisible to the rewind and code-validity machinery. Guest stores
	// do not pass through it; the engines track those directly.
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
func (b *Bus) LoadKind(kind Access, addr uint32, size uint8) (uint32, *Fault) {
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
		return r.ram.load(addr-r.base, size), nil
	}
	v, err := r.dev.Load(addr-r.base, size)
	if err != nil {
		b.stats.Faults++
		return 0, accessFault(kind, addr)
	}
	return v, nil
}

// Load performs a data load of the given size (1, 2 or 4 bytes).
func (b *Bus) Load(addr uint32, size uint8) (uint32, *Fault) {
	return b.LoadKind(Load, addr, size)
}

// Fetch16 fetches one 16-bit instruction parcel.
func (b *Bus) Fetch16(addr uint32) (uint16, *Fault) {
	v, f := b.LoadKind(Fetch, addr, 2)
	return uint16(v), f
}

// Store performs a data store of the given size (1, 2 or 4 bytes).
func (b *Bus) Store(addr uint32, size uint8, val uint32) *Fault {
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
		return nil
	}
	if err := r.dev.Store(addr-r.base, size, val); err != nil {
		b.stats.Faults++
		return accessFault(Store, addr)
	}
	return nil
}

// WriteBytes copies raw bytes into bus memory, for program loading. It
// fails if any byte lands outside RAM. The written range (on error, the
// written prefix) is reported through WriteNotify when set.
func (b *Bus) WriteBytes(addr uint32, data []byte) error {
	for i, by := range data {
		a := addr + uint32(i)
		r := b.find(a, 1)
		if r == nil || r.ram == nil {
			// Report the prefix actually written before failing, so the
			// dirty-state tracking stays sound even on a partial write.
			if b.WriteNotify != nil && i > 0 {
				b.WriteNotify(addr, addr+uint32(i))
			}
			return fmt.Errorf("mem: WriteBytes: 0x%08x not RAM", a)
		}
		r.ram.bytes[a-r.base] = by
	}
	if b.WriteNotify != nil && len(data) > 0 {
		b.WriteNotify(addr, addr+uint32(len(data)))
	}
	return nil
}

// ReadBytes copies raw bytes out of bus memory, for result inspection.
func (b *Bus) ReadBytes(addr uint32, n int) ([]byte, error) {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint32(i)
		r := b.find(a, 1)
		if r == nil || r.ram == nil {
			return nil, fmt.Errorf("mem: ReadBytes: 0x%08x not RAM", a)
		}
		out[i] = r.ram.bytes[a-r.base]
	}
	return out, nil
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

// NewRAM allocates a zeroed RAM of the given size.
func NewRAM(size uint32) *RAM { return &RAM{bytes: make([]byte, size)} }

// Size returns the RAM capacity in bytes.
func (r *RAM) Size() uint32 { return uint32(len(r.bytes)) }

// Bytes exposes the backing store. The fault injector uses this to flip
// bits; the loader uses it to place images.
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
func (r *RAM) Load(off uint32, size uint8) (uint32, error) {
	return r.load(off, size), nil
}

// Store implements Device.
func (r *RAM) Store(off uint32, size uint8, val uint32) error {
	r.store(off, size, val)
	return nil
}
