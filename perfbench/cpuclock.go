package main

import (
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The end-to-end metrics are timed on CPU clocks, not the wall clock.
// On a shared virtual machine the wall clock also counts the time the
// hypervisor gives the guest's CPUs to other guests (steal) and the
// time other processes in the guest hold a CPU; neither is work the
// program did, and between runs they moved the same code's figures by
// up to a factor of two. A thread's CPU clock advances only while the
// thread runs, and under paravirtual steal accounting (the kernel
// option PARAVIRT_TIME_ACCOUNTING, on in KVM guests) not while its
// virtual CPU is preempted either. It still counts every cycle the
// program spends, in user and kernel mode, on any of its threads. How
// long a run lasts (--seconds) stays wall time.

// clockNow reads one POSIX clock.
func clockNow(id int32) (time.Duration, bool) {
	var ts syscall.Timespec
	_, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, uintptr(id), uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano()), e == 0
}

// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadClock is the CPU clock of thread tid of this process:
// MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED) in the kernel's encoding.
func threadClock(tid int) int32 { return int32(^uint32(tid)<<3) | 6 }

// threadCPU is the calling thread's CPU time. The caller must be locked
// to its thread (runtime.LockOSThread), or the reading belongs to
// whichever thread the goroutine happens to be on.
func threadCPU() time.Duration {
	d, _ := clockNow(clockThreadCPUTime)
	return d
}

// processCPU is the CPU time of all the process's threads, each read
// from its own clock. The process clock (CLOCK_PROCESS_CPUTIME_ID)
// would be cheaper but brings only the calling thread up to date:
// another thread that is running counts only up to its last scheduler
// tick, 4 ms behind at 250 Hz, which is as long as a service job. A
// thread's own clock is exact even while it runs. Threads that exited
// are not counted; the Go runtime keeps its threads, and the benchmark
// unlocks every thread it locks. A reading costs about 15 µs.
func processCPU() time.Duration {
	f, err := os.Open("/proc/self/task")
	if err != nil {
		return 0
	}
	names, _ := f.Readdirnames(-1)
	f.Close()
	var sum time.Duration
	for _, n := range names {
		tid, err := strconv.Atoi(n)
		if err != nil {
			continue
		}
		if d, ok := clockNow(threadClock(tid)); ok {
			sum += d
		}
	}
	return sum
}
