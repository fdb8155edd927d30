package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// minimum returns the smallest of xs (0 for an empty slice).
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Min(m, x)
	}
	return m
}

// maximum returns the largest of xs (0 for an empty slice).
func maximum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		m = math.Max(m, x)
	}
	return m
}

// seconds converts a duration to float seconds.
func seconds(d time.Duration) float64 { return d.Seconds() }

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// fineBuckets is the latency ladder handed to loadgen.Driver.Buckets:
// geometric bounds 1% apart from 1µs to 100s. Histogram.Quantile
// interpolates inside the bucket holding the rank, so a percentile read
// from this ladder is within 1% of the exact sample, and one outlier can
// no longer drag p99 across a 2-2.5x bucket of the default ladder.
func fineBuckets() []float64 {
	var b []float64
	for x := 0.001; x < 100_000; x *= 1.01 {
		b = append(b, x)
	}
	return b
}

// peakRSSMB returns the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
