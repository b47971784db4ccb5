package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"repro/internal/parallel"
)

// The host this benchmark runs on is shared, and its speed swings in
// phases of minutes: on a 2-core host, work per CPU-second fell by up to
// 45% for every workload at once. fleet-year and serve-design therefore
// measure the host's current speed with a probe between stretches of
// work, and scale their wall-clock figures to a reference speed.
// Across five runs this cut the range of fleet-year's throughput from
// 276–517 to 309–353 days/s and serve-design's from 4,170–6,960 to
// 4,000–4,570 round trips/s. The
// probe uses no code of the program, so a change to the program moves
// the scaled figures exactly as it moves the raw ones. Raw figures are
// kept beside them. A single probe is itself noisy, so each stretch is
// scaled by the mean of the probes just before and just after it.

// probeRef is the probe's rate, in passes per second per processor, that
// counts as reference speed (about its rate on an unloaded 2-core x86
// host).
const probeRef = 200_000

// probePasses is how many passes each processor runs: about 200 ms.
const probePasses = 40_000

var probeSink float64

// hostSpeed runs the probe on every processor and returns its rate
// relative to probeRef: 0.8 means the host currently runs 20% slower
// than the reference.
func hostSpeed() float64 {
	runtime.GC()
	par := runtime.GOMAXPROCS(0)
	sums := make([]float64, par)
	start := time.Now()
	// ForEach returns an error only for a cancelled context, and this
	// one never is.
	if err := parallel.ForEach(context.Background(), par, par, func(g int) {
		sums[g] = probeWork(probePasses, g)
	}); err != nil {
		panic(err)
	}
	rate := float64(par*probePasses) / time.Since(start).Seconds()
	for _, s := range sums {
		probeSink += s
	}
	return rate / (probeRef * float64(par))
}

// probeWork is a fixed mix of the work the workloads do most: small
// dense float kernels (a Gram matrix and its Cholesky factor), math.Exp
// and math.Pow, and short-lived allocations.
func probeWork(passes, seed int) float64 {
	const n = 12
	s := 0.0
	for p := range passes {
		a := make([]float64, n*n)
		for i := range n {
			for j := range n {
				d := float64(i-j) / n
				a[i*n+j] = math.Exp(-d*d) + math.Pow(float64(p%7+1), 0.5)*1e-3
			}
			a[i*n+i]++
		}
		for j := range n {
			v := a[j*n+j]
			for k := range j {
				v -= a[j*n+k] * a[j*n+k]
			}
			v = math.Sqrt(v)
			a[j*n+j] = v
			for i := j + 1; i < n; i++ {
				u := a[i*n+j]
				for k := range j {
					u -= a[i*n+k] * a[j*n+k]
				}
				a[i*n+j] = u / v
			}
		}
		s += a[n*n-1] + float64(seed)
	}
	return s
}
