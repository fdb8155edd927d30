package main

import (
	"time"

	"github.com/sigdata/goinfmax/internal/rng"
)

// chaseLen is the dependent-load chase size: 4M uint32 slots = 16 MiB,
// larger than the last-level cache of the machines this runs on, so each
// step is a cache miss and the chase measures memory latency.
const chaseLen = 1 << 22

// hostProbe times a fixed amount of host work: an integer compute loop
// plus a dependent-load chase over one random cycle. The work never
// changes, so a slow probe means a slow host, not a slow program; the
// benchmark reports it next to its metrics and gates nothing on it.
func hostProbe() float64 {
	next := make([]uint32, chaseLen)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle: one cycle through every slot.
	r := rng.New(0x9e3779b97f4a7c15)
	for i := chaseLen - 1; i > 0; i-- {
		j := r.Intn(i)
		next[i], next[j] = next[j], next[i]
	}

	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 25_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	p := uint32(0)
	for i := 0; i < chaseLen; i++ {
		p = next[p]
	}
	elapsed := time.Since(start)
	probeSink = x + uint64(p)
	return seconds(elapsed)
}

// probeSink keeps the probe loops from being optimised away.
var probeSink uint64
