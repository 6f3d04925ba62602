//go:build linux

package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"unsafe"
)

// The host this benchmark runs on shares its physical CPUs with other
// tenants, and the CPU time of the same op moved by up to a factor of two
// over a few minutes as their load (and with it the clock frequency and
// sibling-thread contention) changed. A speed probe measures part of that
// drift: a fixed kernel that calls no PrivacyScope code, timed on the
// caller's thread before every op and before every set-up. The CPU-time
// metrics are scaled by probeRefNanos / (median probe time of the run), so
// they read as CPU time on the host at the speed it had when probeRefNanos
// was measured. The scale is printed in the host record, so every raw time
// can be recovered. The analysis suffers more from a busy neighbour than
// the probe does, so the scale narrows the spread between runs but does
// not remove it.

// probeRefNanos is the probe's median thread CPU time on the reference
// host (2 vCPUs, KVM guest, Intel Xeon, Go 1.24) in a quiet period.
const probeRefNanos = 1.72e6

// The probe's 256 KiB of data fits in L2, and each run warms it before
// timing, so the probe measures the core's speed and not the cache state
// the last op left behind. The data lives outside the Go heap, so the
// probe changes neither the heap the metrics read nor the GC's pacing.
const (
	probeSlots  = 1 << 16 // uint32 chase slots
	probeChase  = 1 << 18 // dependent loads per timed pass
	probeRounds = 12      // timed FNV passes over the slots
)

type speedProbe struct {
	mem     []byte   // anonymous mapping backing next
	next    []uint32 // a single random cycle over all slots
	sink    uint64
	samples []float64 // thread CPU ns per run
}

func newSpeedProbe() (*speedProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeSlots*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("speed probe: %w", err)
	}
	p := &speedProbe{mem: mem, next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), probeSlots)}
	order := rand.New(rand.NewSource(1)).Perm(probeSlots)
	for i := range order {
		p.next[order[i]] = uint32(order[(i+1)%probeSlots])
	}
	return p, nil
}

// close unmaps the probe's data; the error is dropped because the process
// is about to exit and nothing else uses the mapping.
func (p *speedProbe) close() { _ = syscall.Munmap(p.mem) }

// run warms the kernel's data, then times one pass: a pointer chase
// (dependent loads) and FNV-1a hashing (multiply chains). The caller must
// hold runtime.LockOSThread.
func (p *speedProbe) run() {
	p.pass(probeSlots, 1)
	c0 := threadCPU()
	p.pass(probeChase, probeRounds)
	p.samples = append(p.samples, float64(threadCPU()-c0))
}

func (p *speedProbe) pass(chase, rounds int) {
	j := uint32(0)
	for i := 0; i < chase; i++ {
		j = p.next[j]
	}
	h := uint64(14695981039346656037)
	for r := 0; r < rounds; r++ {
		for _, v := range p.next {
			h = (h ^ uint64(v)) * 1099511628211
		}
	}
	p.sink += uint64(j) + h
}

// scale converts the run's CPU times to the reference speed.
func (p *speedProbe) scale() float64 {
	return ratio(probeRefNanos, median(p.samples))
}
