package isa

import "testing"

func TestOpSetBasics(t *testing.T) {
	var s OpSet
	if !s.Empty() || s.Len() != 0 {
		t.Fatal("zero OpSet not empty")
	}
	s.Add(OpADDI)
	s.Add(OpMUL)
	if s.Empty() || s.Len() != 2 {
		t.Errorf("len = %d, want 2", s.Len())
	}
	if !s.Has(OpADDI) || !s.Has(OpMUL) || s.Has(OpDIV) {
		t.Error("membership wrong after Add")
	}
	u := s.Union(OpSetOf(OpDIV))
	if !u.Has(OpDIV) || !u.Has(OpADDI) || u.Len() != 3 {
		t.Errorf("union wrong: %v", u.Ops())
	}
	if ext := s.Extensions(); !ext.Has(ExtI) || !ext.Has(ExtM) || ext.Has(ExtF) {
		t.Errorf("extensions = %v", ext)
	}
}

func TestOpSetComparable(t *testing.T) {
	a := OpSetOf(OpADD, OpSUB)
	b := OpSetOf(OpSUB, OpADD)
	if a != b {
		t.Error("OpSet must be comparable by value (engine cache keys rely on it)")
	}
}

func TestExtGroupSplitsXbmi(t *testing.T) {
	if g := OpBSET.ExtGroup(); g != "Xbmi/Zbs" {
		t.Errorf("bset group = %q, want Xbmi/Zbs", g)
	}
	if g := OpANDN.ExtGroup(); g != "Xbmi/Zbb" {
		t.Errorf("andn group = %q, want Xbmi/Zbb", g)
	}
	if g := OpMUL.ExtGroup(); g != "M" {
		t.Errorf("mul group = %q, want M", g)
	}
	// Every op must land in exactly one named group.
	for op := Op(1); op.Valid(); op++ {
		if op.ExtGroup() == "" {
			t.Errorf("op %v has no extension group", op)
		}
	}
}
