package decode_test

import (
	"testing"

	"repro/internal/decode"
	"repro/internal/encode"
	"repro/internal/isa"
)

// FuzzDecodeEncode checks the decoder against the encoder on any word,
// read both as a 32-bit instruction and, through its low half, as a
// 16-bit compressed one. A legal decode must round-trip through
// encode.Encode or encode.Encode16: the 32-bit re-encoding decodes to
// the same instruction (don't-care bits may differ) and the compressed
// one reproduces the parcel bit for bit. An illegal word must be
// illegal on every path: Decode agrees with the sized decoder, and the
// encoder refuses the result.
func FuzzDecodeEncode(f *testing.F) {
	for _, p := range isa.Patterns() {
		f.Add(p.Match)
	}
	f.Fuzz(func(t *testing.T, word uint32) {
		if !decode.IsCompressed(uint16(word)) {
			in := decode.Decode32(word)
			if d := decode.Decode(word); d != in {
				t.Fatalf("0x%08x: Decode %+v, Decode32 %+v", word, d, in)
			}
			checkRoundTrip32(t, word, in)
		}
		half := uint16(word)
		in := decode.Decode16(half)
		if in.Size != 2 || in.Raw != uint32(half) {
			t.Fatalf("0x%04x: Decode16 size %d raw 0x%x", half, in.Size, in.Raw)
		}
		if decode.IsCompressed(half) {
			if d := decode.Decode(uint32(half)); d != in {
				t.Fatalf("0x%04x: Decode %+v, Decode16 %+v", half, d, in)
			}
		}
		checkRoundTrip16(t, half, in)
	})
}

// checkRoundTrip32 checks one Decode32 result against the encoder.
func checkRoundTrip32(t *testing.T, word uint32, in decode.Inst) {
	t.Helper()
	if in.Size != 4 || in.Raw != word {
		t.Fatalf("0x%08x: Decode32 size %d raw 0x%x", word, in.Size, in.Raw)
	}
	w, err := encode.Encode(in)
	if !in.Valid() {
		if err == nil {
			t.Fatalf("0x%08x: illegal, yet its decode encodes to 0x%08x", word, w)
		}
		return
	}
	if err != nil {
		t.Fatalf("0x%08x: decodes to %v, which does not encode: %v", word, in, err)
	}
	got := decode.Decode32(w)
	if got.Raw != w {
		t.Fatalf("0x%08x: re-encoding 0x%08x decodes with raw 0x%x", word, w, got.Raw)
	}
	got.Raw = word
	if got != in {
		t.Fatalf("0x%08x: decodes to %+v, re-encoding 0x%08x to %+v", word, in, w, got)
	}
	if w2, err := encode.Encode(decode.Decode32(w)); err != nil || w2 != w {
		t.Fatalf("0x%08x: re-encoding 0x%08x is not a fixed point (0x%08x, %v)", word, w, w2, err)
	}
}

// checkRoundTrip16 checks one Decode16 result against the encoder.
func checkRoundTrip16(t *testing.T, half uint16, in decode.Inst) {
	t.Helper()
	h, err := encode.Encode16(in)
	if !in.Valid() {
		if err == nil {
			t.Fatalf("0x%04x: illegal, yet its decode encodes to 0x%04x", half, h)
		}
		return
	}
	if err != nil {
		t.Fatalf("0x%04x: decodes to %v, which does not encode: %v", half, in, err)
	}
	if h != half {
		t.Fatalf("0x%04x: decodes to %v, which encodes to 0x%04x", half, in, h)
	}
}
