//go:build linux

package main

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs (linux/time.h). Both clocks count CPU time in
// nanoseconds as the scheduler accounts it; getrusage is not used because
// it advances in scheduler ticks (4 ms on common kernels), coarser than
// many of the ops measured here.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID: every thread of the process
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID: the calling OS thread only
)

func clockNanos(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return ts.Nano()
}

// processCPU is the CPU time of the whole process, GC workers included.
func processCPU() int64 { return clockNanos(clockProcessCPU) }

// threadCPU is the CPU time of the calling OS thread. The caller must hold
// runtime.LockOSThread, or the goroutine may migrate between readings.
func threadCPU() int64 { return clockNanos(clockThreadCPU) }

// Runtime counters read through runtime/metrics. Every name is a
// cumulative count except heapObjects, which is the heap in use.
const (
	mAllocBytes   = "/gc/heap/allocs:bytes"
	mAllocObjects = "/gc/heap/allocs:objects"
	mGCCycles     = "/gc/cycles/total:gc-cycles"
	mGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU     = "/cpu/classes/total:cpu-seconds"
	mHeapObjects  = "/memory/classes/heap/objects:bytes"
)

// rtSnapshot is one reading of the cumulative runtime counters.
type rtSnapshot struct {
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, totalCPU                    float64
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: mAllocBytes}, {Name: mAllocObjects}, {Name: mGCCycles},
		{Name: mGCCPU}, {Name: mTotalCPU},
	}
	metrics.Read(s)
	return rtSnapshot{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcCPU:        s[3].Value.Float64(),
		totalCPU:     s[4].Value.Float64(),
	}
}

// heapSampler tracks the highest heap in use since the last reset. The
// heap only grows between collections, so sampling every millisecond
// misses at most one millisecond of allocation at the peak.
type heapSampler struct {
	max    atomic.Uint64
	stop   chan struct{}
	wg     sync.WaitGroup
	sample []metrics.Sample
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.sample = []metrics.Sample{{Name: mHeapObjects}}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		// The sampler owns its own sample slice; reset and peak use theirs.
		s := []metrics.Sample{{Name: mHeapObjects}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			h.raise(s[0].Value.Uint64())
		}
	}()
	return h
}

func (h *heapSampler) raise(v uint64) {
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (h *heapSampler) now() uint64 {
	metrics.Read(h.sample)
	return h.sample[0].Value.Uint64()
}

// reset starts a new peak window at the current heap.
func (h *heapSampler) reset() { h.max.Store(h.now()) }

// peak returns the highest heap in use since reset, in bytes.
func (h *heapSampler) peak() uint64 {
	h.raise(h.now())
	return h.max.Load()
}

func (h *heapSampler) close() {
	close(h.stop)
	h.wg.Wait()
}

// cpuStat is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuStat struct{ total, steal uint64 }

// readCPUStat returns the zero value when /proc/stat is unreadable; the
// steal share then reads 0.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuStat{}
	}
	var st cpuStat
	// user nice system idle iowait irq softirq steal; guest time is
	// already included in user and nice.
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseUint(f, 10, 64)
		st.total += v
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealShare is the share of all CPU time the hypervisor gave to other
// guests between a and b.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
