package main

import (
	"crypto/sha256"
	"slices"
	"time"
)

// Host seconds are reported in reference-host seconds: a wall-clock
// interval is multiplied by refNominal / refS, where refS is the reference
// kernel's time measured in fresh processes just before and just after the
// simulation's process. A shared sandbox's speed drifts by up to 2x within
// minutes as neighbours come and go; the kernel slows down and speeds up
// with it, so the calibrated figure follows the code rather than the
// moment. The raw wall-clock figures are reported too, as host.* per-layer
// metrics.

// refNominal is the reference kernel's time on the reference host (a
// 2-vCPU x86-64 sandbox, measured while it was quiet).
const refNominal = 0.05

// refKernel runs a fixed CPU and memory workload shaped like the
// simulator's host profile (hashing, map updates, a sort and many small
// allocations) and returns its host time. It runs in a process of its own,
// so that like a simulation it starts from a cold heap.
func refKernel() float64 {
	start := time.Now()
	x := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(next())
	}
	for i := 0; i < 300; i++ {
		sum := sha256.Sum256(buf)
		sink += int(sum[0])
	}
	m := map[uint64]int{}
	for i := 0; i < 300000; i++ {
		m[next()%100000] += i
	}
	xs := make([]uint64, 300000)
	for i := range xs {
		xs[i] = next()
	}
	slices.Sort(xs)
	var ptrs []*[64]byte
	for i := 0; i < 200000; i++ {
		ptrs = append(ptrs, new([64]byte))
	}
	sink += len(ptrs) + len(m)
	return time.Since(start).Seconds()
}

// calibrated converts wall-clock seconds measured while the kernel took
// refS seconds into reference-host seconds.
func calibrated(wall, refS float64) float64 { return wall * refNominal / refS }
