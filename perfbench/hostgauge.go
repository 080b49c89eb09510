package main

import (
	"math/rand"
	"runtime"
)

// The host gauge. Even on CPU clocks, the host this benchmark was built
// on ran the same code up to twice as slow from one stretch of minutes
// to the next. So every time a segment measures is divided by the
// segment's host factor: how much slower than on the unloaded host a
// fixed reference workload ran just before and just after the
// segment's timed phase. A change to the program moves the metrics; a
// change of the host's speed moves the reference too and largely
// cancels out. The reference is the same in every version of the
// program.
//
// The reference is a small interpreter of the kind the emulator is: a
// program of closures, one per instruction, each reading and writing a
// register file and a data memory, dispatched through one indirect
// call. A pure arithmetic loop did not follow the emulator: it kept its
// speed while firmware passes slowed. The interpreter follows it only
// in part (README.md, "Host speed states"). In ten 30-second runs per
// workload made while it read 1.5–1.9 times its unloaded time, the
// spread of guest_mips over the runs (first to third quartile over the
// median) was 4.9% for firmware, 2.2% for campaign and 8.7% for the
// service, where the unscaled figures spread 9.4%, 8.6% and 11.8%.

// refNominalNsPerOp is the reference's CPU time per instruction on the
// unloaded build host (2-vCPU KVM guest, Intel Xeon), where the host
// factor is 1.
const refNominalNsPerOp = 10.0

const (
	refProgramLen = 20000 // instructions in the reference program
	refSliceOps   = refProgramLen
	refSlices     = 5 // timed slices per sample, after one untimed slice

	// gaugeSamples is how many samples the gauge takes at each end of a
	// segment's timed phase, when nothing else of the workload runs. A
	// sample takes about 1.2 ms, so the gauge costs about 20 ms a
	// segment, outside every timed sample.
	gaugeSamples = 8
)

// refVM is the reference interpreter's state.
type refVM struct {
	r   [16]uint32
	mem [8192]uint32
	pc  int
}

type refOp func(vm *refVM)

// refProgram is the reference program, generated once from a fixed
// seed: register arithmetic, loads, stores and a conditional skip.
var refProgram = func() []refOp {
	rng := rand.New(rand.NewSource(1))
	kinds := []func(a, b, c int, k uint32) refOp{
		func(a, b, c int, k uint32) refOp { return func(vm *refVM) { vm.r[a] = vm.r[b] + vm.r[c]; vm.pc++ } },
		func(a, b, c int, k uint32) refOp { return func(vm *refVM) { vm.r[a] = vm.r[b] ^ k; vm.pc++ } },
		func(a, b, c int, k uint32) refOp { return func(vm *refVM) { vm.r[a] = vm.r[b] << (k & 7); vm.pc++ } },
		func(a, b, c int, k uint32) refOp {
			return func(vm *refVM) { vm.r[a] = vm.mem[(vm.r[b]+k)&8191]; vm.pc++ }
		},
		func(a, b, c int, k uint32) refOp {
			return func(vm *refVM) { vm.mem[(vm.r[b]+k)&8191] = vm.r[a]; vm.pc++ }
		},
		func(a, b, c int, k uint32) refOp { return func(vm *refVM) { vm.r[a] = vm.r[b] * vm.r[c]; vm.pc++ } },
		func(a, b, c int, k uint32) refOp {
			return func(vm *refVM) {
				if vm.r[a]&1 == 0 {
					vm.pc += 2
				} else {
					vm.pc++
				}
			}
		},
		func(a, b, c int, k uint32) refOp { return func(vm *refVM) { vm.r[a] = vm.r[b] - vm.r[c] + 1; vm.pc++ } },
	}
	prog := make([]refOp, refProgramLen)
	for i := range prog {
		prog[i] = kinds[rng.Intn(len(kinds))](rng.Intn(16), rng.Intn(16), rng.Intn(16), rng.Uint32())
	}
	return prog
}()

// run executes n instructions of the reference program, wrapping round
// at its end.
func (vm *refVM) run(n int) {
	for i := 0; i < n; i++ {
		if vm.pc >= len(refProgram) {
			vm.pc = 0
		}
		refProgram[vm.pc](vm)
	}
}

// hostGauge samples the reference around one segment's timed phase.
type hostGauge struct {
	vm      refVM
	nsPerOp []float64 // the segment's samples
}

// reset drops the previous segment's samples.
func (g *hostGauge) reset() { g.nsPerOp = g.nsPerOp[:0] }

// sample times the reference gaugeSamples times. Each sample is one
// untimed pass over the reference program, then the median of
// refSlices passes on the thread's own CPU clock.
func (g *hostGauge) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for range gaugeSamples {
		g.vm.run(refSliceOps)
		var slices [refSlices]float64
		for i := range slices {
			t0 := threadCPU()
			g.vm.run(refSliceOps)
			slices[i] = float64(threadCPU()-t0) / refSliceOps
		}
		g.nsPerOp = append(g.nsPerOp, median(slices[:]))
	}
}

// factor is how much slower than the nominal host the segment ran the
// reference: its median sample over refNominalNsPerOp.
func (g *hostGauge) factor() float64 {
	return median(g.nsPerOp) / refNominalNsPerOp
}
