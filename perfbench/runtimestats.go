package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// heapSampler polls the live heap every 10ms during a traced run, without
// stopping the world, to find its peak.
type heapSampler struct {
	stopCh chan struct{}
	wg     sync.WaitGroup
	peak   uint64
	err    error // a panic of the sampling goroutine
}

const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopCh: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		defer func() {
			if p := recover(); p != nil {
				h.err = fmt.Errorf("heap sampler panicked: %v", p)
			}
		}()
		sample := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and records the runtime per-layer metrics.
func (h *heapSampler) stop(rep *report) error {
	close(h.stopCh)
	h.wg.Wait()
	if h.err != nil {
		return h.err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.set("runtime.heap_peak_mb", float64(h.peak)/(1<<20))
	rep.set("runtime.gc_cycles", float64(ms.NumGC))
	rep.set("runtime.gc_pause_ms", float64(ms.PauseTotalNs)/1e6)
	return nil
}
