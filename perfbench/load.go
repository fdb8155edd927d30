package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/sigdata/goinfmax/internal/loadgen"
)

// loadPlan freezes one workload's open-loop load: the light and busy
// rates (about 1/6, and 1/4 to 1/3, of the knee measured at the commit that
// introduced the benchmark, kept as absolute req/s so a change that moves
// the knee is measured at the same offered load as its parent; README.md
// says why busy is not higher) and the p99 limit loadgen.slo_qps is
// measured against (well above the light-rate p99, so it follows
// capacity rather than small latency changes).
type loadPlan struct {
	light, busy float64 // req/s
	sloMS       float64
}

// A p99 needs 1000 samples to have ten beyond it, and every phase whose
// p99 is used holds that many; a saturation-grid phase holds gridScale
// times as many, so that a backlog has time to grow. The smoke test only
// checks that every metric is emitted, with a few requests per phase.
func (b *bench) tailSamples() int64 {
	if b.smoke {
		return 20
	}
	return 1000
}

const gridScale = 3

// The host stalls for a few milliseconds about once a second. At
// sub-millisecond service times a phase that catches a stall has it as
// its slowest 1%, and one that does not has the program's own tail, so a
// single phase's p99 jumps between the two. Each rate is therefore
// measured as a run of short sub-phases, and its p50 and p99 are the
// medians over them: the typical sub-phase, whose p99 is the program's
// tail whenever most sub-phases miss a stall.
const (
	warmupShare = 0.05  // of --seconds, at the busy rate
	lightShare  = 0.125 // of --seconds per round, in sub-phases
	busyShare   = 0.1   // likewise
)

// The load runs in loadRounds rounds at different times of the run, so a
// stretch of slow host hits one round of each rate rather than all of
// it. A round is the light sub-phases, the busy sub-phases, and the
// saturation grid — one phase at each rate busy×1.2^j, j = 1..gridSteps —
// climbed until a rate misses the p99 limit. The limits sit far above
// the host's stalls, so a grid phase misses one only when the rate is
// past what the program sustains and a backlog builds.
const (
	loadRounds = 2
	gridStep   = 1.2
	gridSteps  = 9
)

// newDriver returns a load driver with no more workers than CPUs and the
// fine latency ladder.
func newDriver(t loadgen.Target, w loadgen.Workload) *loadgen.Driver {
	return &loadgen.Driver{
		Target:   t,
		Workload: w,
		Workers:  runtime.NumCPU(),
		Buckets:  fineBuckets(),
	}
}

// phase runs one open-loop phase of scale×tailSamples requests and books
// them: every non-2xx answer and every transport error or timeout counts
// as failed.
func (b *bench) phase(d *loadgen.Driver, qps float64, scale int64) (loadgen.PhaseStats, error) {
	want := scale * b.tailSamples()
	ps, err := d.RunOpen(context.Background(), qps, time.Duration(float64(want+1)/qps*float64(time.Second)))
	b.rep.ops(ps.Requests, ps.Requests-ps.OK)
	if err == nil && ps.Requests < want {
		err = fmt.Errorf("phase at %.0f req/s has %d samples, fewer than %d", qps, ps.Requests, want)
	}
	return ps, err
}

// subPhases runs phases at qps back to back for about dur, at least one.
func (b *bench) subPhases(d *loadgen.Driver, qps float64, dur time.Duration) ([]loadgen.PhaseStats, error) {
	var out []loadgen.PhaseStats
	for start := time.Now(); len(out) == 0 || time.Since(start) < dur; {
		ps, err := b.phase(d, qps, 1)
		if err != nil {
			return out, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// measureLoad runs a warm-up at the busy rate, then the load rounds,
// calling between before each round and after the last. It records the
// median p50 and p99 of the light and busy sub-phases, loadgen.slo_qps,
// and how late the generator ran.
func (b *bench) measureLoad(d *loadgen.Driver, plan loadPlan, between func() error) error {
	// The first high-rate phase of a process pays for heap growth and
	// fresh pages, which later phases do not.
	if _, err := b.subPhases(d, plan.busy, b.share(warmupShare)); err != nil {
		return err
	}
	rates := make([]float64, gridSteps+1)
	for j := range rates {
		rates[j] = plan.busy * math.Pow(gridStep, float64(j))
	}
	var lights, busies []loadgen.PhaseStats
	grid := make([][]float64, len(rates)) // p99 per rate and round
	for round := 0; round < loadRounds; round++ {
		if err := between(); err != nil {
			return err
		}
		settle()
		light, err := b.subPhases(d, plan.light, b.share(lightShare))
		if err != nil {
			return err
		}
		busy, err := b.subPhases(d, plan.busy, b.share(busyShare))
		if err != nil {
			return err
		}
		lights, busies = append(lights, light...), append(busies, busy...)
		b.printPhases("light", light)
		b.printPhases("busy", busy)
		// Past the first rate that misses the limit, higher rates are
		// taken to miss it by as much rather than run a longer backlog.
		over := medianP99(busy, plan)
		grid[0] = append(grid[0], over)
		for j := 1; j < len(rates); j++ {
			if over <= plan.sloMS {
				ps, err := b.phase(d, rates[j], gridScale)
				if err != nil {
					return err
				}
				b.printPhases("grid", []loadgen.PhaseStats{ps})
				over = effectiveP99(ps, plan)
			}
			grid[j] = append(grid[j], over)
		}
	}
	if err := between(); err != nil {
		return err
	}
	b.recordPhases("light", lights)
	b.recordPhases("busy", busies)

	// A rate misses the limit only if it missed it in every round: one
	// round's transient stall cannot pull the knee down, a backlog can.
	p99 := make([]float64, len(rates))
	for j, xs := range grid {
		p99[j] = minimum(xs)
	}
	slo, crossed, err := kneeRate(plan.light, medianP99(lights, plan), rates, monotone(p99), plan.sloMS)
	if err != nil {
		return err
	}
	if !crossed {
		fmt.Fprintf(b.out, "perfbench: no grid rate misses the %.0fms limit; loadgen.slo_qps is the top rate, a lower bound\n", plan.sloMS)
	}
	b.rep.set("loadgen.slo_qps", slo)
	return nil
}

// medianP99 is the median over sub-phases of their effective p99.
func medianP99(subs []loadgen.PhaseStats, plan loadPlan) float64 {
	var xs []float64
	for _, ps := range subs {
		xs = append(xs, effectiveP99(ps, plan))
	}
	return median(xs)
}

func (b *bench) printPhases(name string, subs []loadgen.PhaseStats) {
	var n int64
	var p50, p99 []float64
	for _, ps := range subs {
		n += ps.Requests
		p50 = append(p50, ps.P50MS)
		p99 = append(p99, ps.P99MS)
	}
	fmt.Fprintf(b.out, "perfbench: %-5s %7.1f req/s  %d sub-phases, n=%d  median p50=%.3fms p99=%.3fms  p99 range %.3f-%.3fms\n",
		name, subs[0].OfferedQPS, len(subs), n, median(p50), median(p99), minimum(p99), maximum(p99))
}

// recordPhases records the median p50 and p99 over the sub-phases of one
// rate and how far the generator fell behind in them.
func (b *bench) recordPhases(name string, subs []loadgen.PhaseStats) {
	var p50, p99, achieved, overrun []float64
	for _, ps := range subs {
		p50 = append(p50, ps.P50MS)
		p99 = append(p99, ps.P99MS)
		achieved = append(achieved, ps.AchievedQPS/ps.OfferedQPS)
		overrun = append(overrun, math.Max(0, overrunMS(ps)))
	}
	b.rep.set("p50_ms."+name, median(p50))
	b.rep.set("loadgen.p99_ms."+name, median(p99))
	b.rep.set("loadgen.achieved_ratio."+name, mean(achieved))
	b.rep.set("loadgen.overrun_ms."+name, mean(overrun))
}

// effectiveP99 is a phase's p99, raised to the limit when the phase
// failed the other conditions: more than 1% failures, or a backlog (the
// phase ended more than 3 limits plus 4 standard deviations of its
// Poisson schedule's end after n/rate).
func effectiveP99(ps loadgen.PhaseStats, plan loadPlan) float64 {
	jitter := 4 * math.Sqrt(float64(ps.Requests)) / ps.OfferedQPS * 1e3
	if ps.FailFrac() > 0.01 || overrunMS(ps) > 3*plan.sloMS+jitter {
		return math.Max(ps.P99MS, plan.sloMS)
	}
	return ps.P99MS
}

// overrunMS is how long a phase ran past the expected end of its arrival
// schedule (n/rate): the generator's lateness, which grows with a backlog.
func overrunMS(ps loadgen.PhaseStats) float64 {
	return ps.DurationMS - float64(ps.Requests)/ps.OfferedQPS*1e3
}

// monotone returns the non-decreasing sequence closest to xs in least
// squares (pool-adjacent-violators): p99 cannot fall as the rate rises,
// so a dip or a spike at one rate is averaged with its neighbours.
func monotone(xs []float64) []float64 {
	type block struct{ sum, n float64 }
	var blocks []block
	for _, x := range xs {
		blocks = append(blocks, block{x, 1})
		for len(blocks) > 1 {
			a, c := blocks[len(blocks)-2], blocks[len(blocks)-1]
			if a.sum/a.n <= c.sum/c.n {
				break
			}
			blocks = append(blocks[:len(blocks)-2], block{a.sum + c.sum, a.n + c.n})
		}
	}
	out := make([]float64, 0, len(xs))
	for _, bl := range blocks {
		for i := 0; i < int(bl.n); i++ {
			out = append(out, bl.sum/bl.n)
		}
	}
	return out
}

// kneeRate returns the rate at which p99 crosses limit, interpolating
// log p99 against log rate between the last rate within the limit and
// the first past it; the light rate is the point below the grid. When no
// rate misses the limit it returns the top rate and crossed = false.
func kneeRate(lightRate, lightP99 float64, rates, p99 []float64, limit float64) (rate float64, crossed bool, err error) {
	if lightP99 > limit {
		return 0, false, fmt.Errorf("the light rate %.0f req/s already misses the %.0fms p99 limit (p99 %.1fms)",
			lightRate, limit, lightP99)
	}
	loR, loP := lightRate, lightP99
	for j, r := range rates {
		if p99[j] > limit {
			frac := math.Log(limit/loP) / math.Log(p99[j]/loP)
			return loR * math.Pow(r/loR, frac), true, nil
		}
		loR, loP = r, p99[j]
	}
	return loR, false, nil
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// settle collects garbage left by earlier work, so that every measured
// section starts from the same heap state instead of paying for a
// collection its predecessor triggered.
func settle() { runtime.GC() }
