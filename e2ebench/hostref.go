package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few cores of a shared host, and other tenants'
// load changes how fast every instruction and memory access runs: a fixed
// matmul took about 13 or about 25 ms from one sample to the next, and the
// mix drifts over minutes, so six 20-second campaign runs of the same
// code read between 19.4 and 28.2 victims/s. A fixed reference kernel, timed
// after every campaign while the attack is idle, samples that speed
// across the run. The host-clock end-to-end metrics are scaled by
// mean(sample)/refNominal, i.e. reported at the speed of a host on which
// one sample takes refNominal. The kernel has a compute half (an
// in-cache float32 matmul, like the models' forwards) and a memory half
// (a sweep over a buffer far larger than the caches, like the store
// reloads); on campaign_faulted, where reloads dominate, either half
// alone left 1.6 to 2.2 times the spread of both together (README.md).

// refNominal is the reference sample time the scaled metrics assume.
const refNominal = 4 * time.Millisecond

// The compute half multiplies two refN×refN matrices refReps times; the
// memory half touches one float32 per cache line of a refMemBytes buffer.
const (
	refN        = 48
	refReps     = 25
	refMemBytes = 16 << 20
	refLine     = 64 / 4
)

// The kernel's operands are allocated once so that a sample never
// allocates. The memory half's buffer is mapped outside the Go heap, so
// it neither counts in heap_live_mb nor changes the collector's pace.
var (
	refA, refB = refMatrix(0.25, 7), refMatrix(0.5, 5)
	refC       = make([]float32, refN*refN)
	refMem     []float32
	refSink    float32 // keeps the kernel's results live
)

func refMatrix(scale float32, period int) []float32 {
	m := make([]float32, refN*refN)
	for i := range m {
		m[i] = float32(i%period) * scale
	}
	return m
}

// initRef maps and touches the memory half's buffer, so that no sample
// pays its page faults.
func initRef() error {
	if refMem != nil {
		return nil
	}
	b, err := syscall.Mmap(-1, 0, refMemBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("reference buffer: %w", err)
	}
	refMem = unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), len(b)/4)
	for i := range refMem {
		refMem[i] = float32(i % 3)
	}
	return nil
}

// refSample runs the reference kernel once and returns its wall time.
func refSample() time.Duration {
	start := time.Now()
	for rep := 0; rep < refReps; rep++ {
		clear(refC)
		for i := 0; i < refN; i++ {
			row := refC[i*refN : (i+1)*refN]
			for k := 0; k < refN; k++ {
				a := refA[i*refN+k]
				b := refB[k*refN : (k+1)*refN]
				for j := range row {
					row[j] += a * b[j]
				}
			}
		}
		refSink += refC[rep]
	}
	var s float32
	for i := 0; i < len(refMem); i += refLine {
		refMem[i] += 1
		s += refMem[i]
	}
	refSink += s
	return time.Since(start)
}

// hostScale is the mean of a run's reference samples over refNominal: 1
// on the nominal host, 1.5 where the host ran the kernel 1.5 times slower.
// It is 1 when there are no samples.
func hostScale(samples []time.Duration) float64 {
	if len(samples) == 0 {
		return 1
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return float64(sum) / float64(len(samples)) / float64(refNominal)
}
