// Package elf reads and writes 32-bit little-endian RISC-V ELF
// executables: enough of the format for the ecosystem's binaries to round
// trip through the standard tooling shape (program headers for loadable
// segments, a symbol table for the analyzers) without any external
// toolchain.
package elf

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// EM_RISCV is the ELF machine number assigned to RISC-V.
const machineRISCV = 243

// header field offsets/values for ELFCLASS32, little endian.
const (
	ehSize = 52
	phSize = 32
	shSize = 40
)

// Segment is one loadable chunk of the image: Data holds the bytes the
// file carries, MemSize the bytes the segment spans in memory, the tail
// past Data being zero (bss). Read sets MemSize >= len(Data); Write
// treats a smaller MemSize as len(Data).
type Segment struct {
	Addr    uint32
	Data    []byte
	MemSize uint32
}

// Image is the loader's view of an executable.
type Image struct {
	Entry    uint32
	Segments []Segment
	Symbols  map[string]uint32
}

// Write serializes an image into an ELF32 executable with one PT_LOAD
// segment per Segment and a full symbol table.
func Write(img *Image) []byte {
	le := binary.LittleEndian

	// String and symbol tables.
	names := make([]string, 0, len(img.Symbols))
	for n := range img.Symbols {
		names = append(names, n)
	}
	sort.Strings(names)

	strtab := []byte{0}
	nameOff := make(map[string]uint32, len(names))
	for _, n := range names {
		nameOff[n] = uint32(len(strtab))
		strtab = append(strtab, n...)
		strtab = append(strtab, 0)
	}
	symtab := make([]byte, 16) // null symbol
	for _, n := range names {
		sym := make([]byte, 16)
		le.PutUint32(sym[0:], nameOff[n])     // st_name
		le.PutUint32(sym[4:], img.Symbols[n]) // st_value
		le.PutUint32(sym[8:], 0)              // st_size
		sym[12] = 0x10                        // GLOBAL, NOTYPE
		le.PutUint16(sym[14:], 1)             // st_shndx: .text
		symtab = append(symtab, sym...)
	}

	shstrtab := []byte("\x00.text\x00.symtab\x00.strtab\x00.shstrtab\x00")
	shName := map[string]uint32{".text": 1, ".symtab": 7, ".strtab": 15, ".shstrtab": 23}

	phnum := len(img.Segments)
	phoff := uint32(ehSize)
	dataOff := phoff + uint32(phnum)*phSize

	var body []byte
	segOff := make([]uint32, phnum)
	for i, s := range img.Segments {
		segOff[i] = dataOff + uint32(len(body))
		body = append(body, s.Data...)
	}
	symOff := dataOff + uint32(len(body))
	strOff := symOff + uint32(len(symtab))
	shstrOff := strOff + uint32(len(strtab))
	shoff := shstrOff + uint32(len(shstrtab))

	// Section headers: null, .text (covers segment 0), .symtab, .strtab,
	// .shstrtab.
	shnum := 5
	out := make([]byte, 0, int(shoff)+shnum*shSize)

	// ELF header.
	eh := make([]byte, ehSize)
	copy(eh, "\x7fELF")
	eh[4] = 1                // ELFCLASS32
	eh[5] = 1                // ELFDATA2LSB
	eh[6] = 1                // EV_CURRENT
	le.PutUint16(eh[16:], 2) // ET_EXEC
	le.PutUint16(eh[18:], machineRISCV)
	le.PutUint32(eh[20:], 1) // version
	le.PutUint32(eh[24:], img.Entry)
	le.PutUint32(eh[28:], phoff)
	le.PutUint32(eh[32:], shoff)
	le.PutUint32(eh[36:], 1) // e_flags: RVC
	le.PutUint16(eh[40:], ehSize)
	le.PutUint16(eh[42:], phSize)
	le.PutUint16(eh[44:], uint16(phnum))
	le.PutUint16(eh[46:], shSize)
	le.PutUint16(eh[48:], uint16(shnum))
	le.PutUint16(eh[50:], 4) // shstrndx
	out = append(out, eh...)

	// Program headers.
	for i, s := range img.Segments {
		ph := make([]byte, phSize)
		le.PutUint32(ph[0:], 1) // PT_LOAD
		le.PutUint32(ph[4:], segOff[i])
		le.PutUint32(ph[8:], s.Addr)  // vaddr
		le.PutUint32(ph[12:], s.Addr) // paddr
		le.PutUint32(ph[16:], uint32(len(s.Data)))
		le.PutUint32(ph[20:], max(s.MemSize, uint32(len(s.Data))))
		le.PutUint32(ph[24:], 7) // RWX
		le.PutUint32(ph[28:], 4) // align
		out = append(out, ph...)
	}
	out = append(out, body...)
	out = append(out, symtab...)
	out = append(out, strtab...)
	out = append(out, shstrtab...)

	sh := func(name string, typ, flags, addr, off, size, link, entsize uint32) []byte {
		b := make([]byte, shSize)
		le.PutUint32(b[0:], shName[name])
		le.PutUint32(b[4:], typ)
		le.PutUint32(b[8:], flags)
		le.PutUint32(b[12:], addr)
		le.PutUint32(b[16:], off)
		le.PutUint32(b[20:], size)
		le.PutUint32(b[24:], link)
		le.PutUint32(b[32:], 4) // addralign
		le.PutUint32(b[36:], entsize)
		return b
	}
	out = append(out, make([]byte, shSize)...) // null section
	var textAddr, textOff, textSize uint32
	if phnum > 0 {
		textAddr = img.Segments[0].Addr
		textOff = segOff[0]
		textSize = uint32(len(img.Segments[0].Data))
	}
	out = append(out, sh(".text", 1 /*PROGBITS*/, 7 /*WAX*/, textAddr, textOff, textSize, 0, 0)...)
	out = append(out, sh(".symtab", 2 /*SYMTAB*/, 0, 0, symOff, uint32(len(symtab)), 3 /*strtab idx*/, 16)...)
	out = append(out, sh(".strtab", 3 /*STRTAB*/, 0, 0, strOff, uint32(len(strtab)), 0, 0)...)
	out = append(out, sh(".shstrtab", 3, 0, 0, shstrOff, uint32(len(shstrtab)), 0, 0)...)
	return out
}

// Read parses an ELF32 RISC-V executable. It copies only the bytes the
// file holds: a header claiming a huge memory size allocates nothing
// here, and a loader checks MemSize before it sizes memory from it.
func Read(data []byte) (*Image, error) {
	le := binary.LittleEndian
	if len(data) < ehSize || string(data[:4]) != "\x7fELF" {
		return nil, fmt.Errorf("elf: bad magic")
	}
	if data[4] != 1 || data[5] != 1 {
		return nil, fmt.Errorf("elf: not ELFCLASS32 little-endian")
	}
	if m := le.Uint16(data[18:]); m != machineRISCV {
		return nil, fmt.Errorf("elf: machine %d is not RISC-V", m)
	}
	img := &Image{
		Entry:   le.Uint32(data[24:]),
		Symbols: make(map[string]uint32),
	}
	phoff := le.Uint32(data[28:])
	phnum := int(le.Uint16(data[44:]))
	phentsize := int(le.Uint16(data[42:]))
	for i := 0; i < phnum; i++ {
		off := int(phoff) + i*phentsize
		if off+phSize > len(data) {
			return nil, fmt.Errorf("elf: program header %d out of bounds", i)
		}
		ph := data[off:]
		if le.Uint32(ph[0:]) != 1 { // PT_LOAD
			continue
		}
		fileOff := le.Uint32(ph[4:])
		vaddr := le.Uint32(ph[8:])
		filesz := le.Uint32(ph[16:])
		memsz := le.Uint32(ph[20:])
		if int(fileOff)+int(filesz) > len(data) {
			return nil, fmt.Errorf("elf: segment %d data out of bounds", i)
		}
		if memsz < filesz {
			return nil, fmt.Errorf("elf: segment %d memory size %d is below its file size %d", i, memsz, filesz)
		}
		seg := append([]byte(nil), data[fileOff:fileOff+filesz]...)
		img.Segments = append(img.Segments, Segment{Addr: vaddr, Data: seg, MemSize: memsz})
	}

	// Symbols (optional).
	shoff := le.Uint32(data[32:])
	shnum := int(le.Uint16(data[48:]))
	shentsize := int(le.Uint16(data[46:]))
	var symOff, symSize, strOff, strSize uint32
	for i := 0; i < shnum; i++ {
		off := int(shoff) + i*shentsize
		if off+shSize > len(data) {
			return nil, fmt.Errorf("elf: section header %d out of bounds", i)
		}
		sh := data[off:]
		if le.Uint32(sh[4:]) == 2 { // SHT_SYMTAB
			symOff = le.Uint32(sh[16:])
			symSize = le.Uint32(sh[20:])
			link := int(le.Uint32(sh[24:]))
			loff := int(shoff) + link*shentsize
			if link < shnum && loff+shSize <= len(data) {
				lsh := data[loff:]
				strOff = le.Uint32(lsh[16:])
				strSize = le.Uint32(lsh[20:])
			}
		}
	}
	if symOff != 0 && int(symOff)+int(symSize) <= len(data) {
		strs := []byte{}
		if int(strOff)+int(strSize) <= len(data) {
			strs = data[strOff : strOff+strSize]
		}
		for off := uint32(16); off+16 <= symSize; off += 16 {
			sym := data[symOff+off:]
			nameIdx := le.Uint32(sym[0:])
			val := le.Uint32(sym[4:])
			name := cstr(strs, nameIdx)
			if name != "" {
				img.Symbols[name] = val
			}
		}
	}
	return img, nil
}

func cstr(b []byte, off uint32) string {
	if int(off) >= len(b) {
		return ""
	}
	end := off
	for int(end) < len(b) && b[end] != 0 {
		end++
	}
	return string(b[off:end])
}
