package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sim"
)

// percentile returns the p-quantile (0..1) of an ascending slice
// (linear interpolation between closest ranks; 0 for an empty slice).
func percentile(sorted []float64, p float64) float64 { return sim.Quantiles(sorted, p)[0] }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does,
// so a spread computed from a result file matches the one the
// acceptance procedure computes. Fewer than two values have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// cpuTime is the process's user+system CPU so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark (Linux
// reports ru_maxrss in KiB — the same figure as VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// memFootprintMB is the memory the Go runtime holds from the OS right
// now: everything it has mapped minus what it has released back. It
// tracks resident size without reading /proc, and unlike a high-water
// mark it can be read many times and a median taken.
func memFootprintMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// calibSink keeps the compiler from deleting the calibration loop.
var calibSink atomic.Uint64

// calibNS times a fixed integer spin loop: the same work before and
// after a run takes the same time on a quiet machine, so a difference
// marks a noisy neighbour rather than a change in the program.
func calibNS() float64 {
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibSink.Add(x)
		if d := float64(time.Since(start)); d < best {
			best = d
		}
	}
	return best
}

// microbench times f in a tight loop: ns and heap allocations per call,
// the median of five batches sized to last about batchDur each.
func microbench(batchDur time.Duration, f func()) (nsPerOp, allocsPerOp float64) {
	f() // warm pools and lazy state outside the timing
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d >= batchDur/4 || n >= 1<<22 {
			if d > 0 {
				n = int(float64(n) * float64(batchDur) / float64(d))
			}
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	var ns, allocs []float64
	var ms runtime.MemStats
	for b := 0; b < 5; b++ {
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		ns = append(ns, float64(d)/float64(n))
		allocs = append(allocs, float64(ms.Mallocs-m0)/float64(n))
	}
	return median(ns), median(allocs)
}

// ratio is a/b, and 0 when b is 0 (a counter over zero requests).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
