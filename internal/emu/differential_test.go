package emu_test

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/vp"
)

// bigRef evaluates the RV32 integer binary operations through math/big —
// a deliberately different computation path from the emulator's switch —
// as an independent differential oracle.
func bigRef(op isa.Op, a, b uint32) uint32 {
	sa := big.NewInt(int64(int32(a)))
	sb := big.NewInt(int64(int32(b)))
	ua := new(big.Int).SetUint64(uint64(a))
	ub := new(big.Int).SetUint64(uint64(b))
	low32 := func(x *big.Int) uint32 {
		m := new(big.Int).And(x, big.NewInt(0xffffffff))
		return uint32(m.Uint64())
	}
	switch op {
	case isa.OpADD:
		return low32(new(big.Int).Add(ua, ub))
	case isa.OpSUB:
		return low32(new(big.Int).Sub(ua, ub))
	case isa.OpAND:
		return low32(new(big.Int).And(ua, ub))
	case isa.OpOR:
		return low32(new(big.Int).Or(ua, ub))
	case isa.OpXOR:
		return low32(new(big.Int).Xor(ua, ub))
	case isa.OpSLL:
		return low32(new(big.Int).Lsh(ua, uint(b&31)))
	case isa.OpSRL:
		return low32(new(big.Int).Rsh(ua, uint(b&31)))
	case isa.OpSRA:
		return low32(new(big.Int).Rsh(sa, uint(b&31)))
	case isa.OpSLT:
		if sa.Cmp(sb) < 0 {
			return 1
		}
		return 0
	case isa.OpSLTU:
		if ua.Cmp(ub) < 0 {
			return 1
		}
		return 0
	case isa.OpMUL:
		return low32(new(big.Int).Mul(ua, ub))
	case isa.OpMULH:
		return low32(new(big.Int).Rsh(new(big.Int).Mul(sa, sb), 32))
	case isa.OpMULHU:
		return low32(new(big.Int).Rsh(new(big.Int).Mul(ua, ub), 32))
	case isa.OpMULHSU:
		return low32(new(big.Int).Rsh(new(big.Int).Mul(sa, ub), 32))
	case isa.OpDIV:
		if b == 0 {
			return 0xffffffff
		}
		q := new(big.Int).Quo(sa, sb) // truncating division
		return low32(q)
	case isa.OpDIVU:
		if b == 0 {
			return 0xffffffff
		}
		return low32(new(big.Int).Div(ua, ub))
	case isa.OpREM:
		if b == 0 {
			return a
		}
		return low32(new(big.Int).Rem(sa, sb))
	case isa.OpREMU:
		if b == 0 {
			return a
		}
		return low32(new(big.Int).Mod(ua, ub))
	}
	panic("unhandled op " + op.String())
}

// TestALUDifferentialAgainstBig cross-checks every integer binary op
// against the math/big oracle on random and corner-case operand pairs by
// actually executing the instruction on the platform.
func TestALUDifferentialAgainstBig(t *testing.T) {
	ops := []isa.Op{
		isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
		isa.OpMUL, isa.OpMULH, isa.OpMULHU, isa.OpMULHSU,
		isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU,
	}
	corners := []uint32{0, 1, 2, 31, 32, 0x7fffffff, 0x80000000, 0xffffffff, 0xfffffffe}
	rng := rand.New(rand.NewSource(31))

	var pairs [][2]uint32
	for _, a := range corners {
		for _, b := range corners {
			pairs = append(pairs, [2]uint32{a, b})
		}
	}
	for i := 0; i < 60; i++ {
		pairs = append(pairs, [2]uint32{rng.Uint32(), rng.Uint32()})
	}

	for _, op := range ops {
		// One program per op evaluating every pair and storing results.
		src := vp.Prelude + "_start:\n\tla s2, out\n"
		for _, pr := range pairs {
			src += fmt.Sprintf("\tli a1, %d\n\tli a2, %d\n\t%s a3, a1, a2\n\tsw a3, 0(s2)\n\taddi s2, s2, 4\n",
				int32(pr[0]), int32(pr[1]), op)
		}
		src += "\tebreak\n\t.align 4\nout:\t.space " + fmt.Sprint(4*len(pairs)) + "\n"

		p, err := vp.New(vp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		prog, err := p.LoadSource(src)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		if stop := p.Run(1_000_000); stop.Reason != emu.StopEbreak {
			t.Fatalf("%v: %v", op, stop)
		}
		out := prog.Symbols["out"]
		for i, pr := range pairs {
			var data [4]byte
			if err := p.Machine.Bus.ReadBytes(out+uint32(4*i), data[:]); err != nil {
				t.Fatal(err)
			}
			got := uint32(data[0]) | uint32(data[1])<<8 | uint32(data[2])<<16 | uint32(data[3])<<24
			want := bigRef(op, pr[0], pr[1])
			if got != want {
				t.Errorf("%v(0x%08x, 0x%08x) = 0x%08x, big oracle says 0x%08x",
					op, pr[0], pr[1], got, want)
			}
		}
	}
}
