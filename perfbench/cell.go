package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"github.com/sigdata/goinfmax/internal/algo/rrset"
	"github.com/sigdata/goinfmax/internal/core"
	"github.com/sigdata/goinfmax/internal/datasets"
	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// The paper-protocol cell: IMM, k=50, IC under WC weights, 10,000
// evaluation worlds, everything on one worker as the paper measures.
const (
	cellK        = 50
	cellEvalSims = 10_000
	// setupReps set-ups are timed per run; setup_s is their median.
	setupReps = 9
	// queryWorlds is the world count of one point-evaluation query.
	queryWorlds = 64
	// spreadOfCalls is the number of timed rrset point queries.
	spreadOfCalls = 1000
)

// cellPlan is the frozen open-loop load of point-evaluation queries.
var cellPlan = loadPlan{light: 1200, busy: 2200, sloMS: 50}

// serverSeed is imserve's default -seed. Like imserve, the benchmark
// generates the graph from it, so every run measures the same youtube
// stand-in and the same oracle; --seed varies the cell's random streams
// and the request streams, which is where run-to-run work should differ.
const serverSeed = 42

// weightedGraph generates the youtube stand-in — at its default scale
// (70,625 nodes), or 64 times smaller for the smoke test — and applies
// WC weights.
func (b *bench) weightedGraph() (graph.G, error) {
	scale := int64(0)
	if b.smoke {
		scale = 1024
	}
	base, err := datasets.Generate("youtube", scale, serverSeed)
	if err != nil {
		return nil, err
	}
	return weights.WeightedCascade{}.Apply(base), nil
}

// timedSetups runs setup setupReps times and returns the last result.
// It records the median set-up time as setup_s and the median time of
// the graph part, which setup returns, as graph.build_s.
func timedSetups[T any](b *bench, setup func() (T, time.Duration, error)) (T, error) {
	var last T
	var all, graphs []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		v, graphTime, err := setup()
		if err != nil {
			return last, err
		}
		all = append(all, seconds(time.Since(start)))
		graphs = append(graphs, seconds(graphTime))
		last = v
	}
	b.rep.set("setup_s", median(all))
	b.rep.set("graph.build_s", median(graphs))
	return last, nil
}

// buildGraph is one timed graph set-up, traced as graph.build.
func (b *bench) buildGraph() (graph.G, time.Duration, error) {
	var g graph.G
	var err error
	d := b.tr.timed("graph.build", func() { g, err = b.weightedGraph() })
	return g, d, err
}

func runCell(b *bench) error {
	g, err := timedSetups(b, func() (graph.G, time.Duration, error) { return b.buildGraph() })
	if err != nil {
		return err
	}
	n := g.N()
	// The cell itself runs at imbench's default seed, so every run repeats
	// the same cell: its accounted memory steps by 2x across seeds, where
	// the RR arena's capacity doubles, which is seed noise, not a change.
	cfg := core.RunConfig{K: cellK, Model: weights.IC, Seed: serverSeed, Workers: 1,
		EvalSims: cellEvalSims, EvalWorkers: 1}

	settle()
	var cell core.Result
	b.tr.timed("core.cell", func() { cell = core.RunCtx(context.Background(), rrset.IMM{}, g, cfg) })
	b.rep.ops(1, 0)
	if err := checkCell(cell, n); err != nil {
		return fmt.Errorf("invalid cell output: %w", err)
	}
	// Further selections of the same cell run between the load rounds, so
	// their median spans the whole run rather than one stretch of it.
	selects := []float64{seconds(cell.SelectionTime)}
	mems := []float64{float64(cell.PeakMemBytes)}
	selCfg := cfg
	selCfg.EvalSims = 0
	reselect := func() error {
		settle()
		var r core.Result
		b.tr.timed("core.select", func() { r = core.RunCtx(context.Background(), rrset.IMM{}, g, selCfg) })
		b.rep.ops(1, 0)
		if r.Status != core.OK || !sameSeeds(r.Seeds, cell.Seeds) {
			b.rep.invalid("repeated selection: status %v, seeds differ from the cell's at the same seed", r.Status)
			return nil
		}
		selects = append(selects, seconds(r.SelectionTime))
		mems = append(mems, float64(r.PeakMemBytes))
		return nil
	}

	ev := diffusion.NewWorldEvaluator(g, weights.IC, queryWorlds, b.seed^0x5eed)
	if err := b.measureLoad(newDriver(&evalTarget{ev: ev, n: n, b: b}, b.queryStream(n)), cellPlan, reselect); err != nil {
		return err
	}
	b.rep.set("select_s", median(selects))
	b.rep.set("peak_mem_mb", median(mems)/(1<<20))
	b.rep.set("eval_s", seconds(cell.EvalTime))
	b.rep.set("spread", cell.Spread.Mean)
	fmt.Fprintf(b.out, "perfbench: cell seeds=%d theta=%d spread=%.1f±%.1f selections=%d\n",
		len(cell.Seeds), cell.Lookups, cell.Spread.Mean, cell.Spread.StdErr, len(selects))
	if b.tr != nil {
		return b.replayCell(g, cell)
	}
	return nil
}

// queryStream is the point-query stream: loadgen /v1/spread bodies of
// 1–10 seeds.
func (b *bench) queryStream(n int32) loadgen.Workload {
	return loadgen.Workload{Seed: b.seed ^ 0xce11, Nodes: n, SpreadFrac: 1, SetMin: 1, SetMax: 10, KMin: 1, KMax: 1}
}

// checkCell validates a finished cell: status OK, k distinct in-range
// seeds, and an evaluated spread that is finite and between k and n.
func checkCell(r core.Result, n int32) error {
	if r.Status != core.OK {
		return fmt.Errorf("status %v: %v", r.Status, r.Err)
	}
	if err := checkSeedSet(r.Seeds, cellK, n); err != nil {
		return err
	}
	if s := r.Spread.Mean; !finite(s) || s < cellK || s > float64(n) || r.Spread.Runs != cellEvalSims {
		return fmt.Errorf("spread %v over %d runs outside [%d, %d]", s, r.Spread.Runs, cellK, n)
	}
	return nil
}

// checkSeedSet checks that seeds holds k distinct nodes of [0, n).
func checkSeedSet(seeds []graph.NodeID, k int, n int32) error {
	if len(seeds) != k {
		return fmt.Errorf("%d seeds, want %d", len(seeds), k)
	}
	seen := make(map[graph.NodeID]bool, k)
	for _, s := range seeds {
		if s < 0 || s >= n || seen[s] {
			return fmt.Errorf("seed %d duplicated or outside [0, %d)", s, n)
		}
		seen[s] = true
	}
	return nil
}

func sameSeeds(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// evalTarget answers the cell workload's point queries — "σ(S) for this
// seed set" — from the paper's evaluation engine, one worker per query,
// with no HTTP, cache or persistence in the path. Bodies are the
// loadgen /v1/spread request bodies.
type evalTarget struct {
	ev *diffusion.WorldEvaluator
	n  int32
	b  *bench
}

func (t *evalTarget) Do(ctx context.Context, req loadgen.Request) loadgen.Outcome {
	var q struct {
		Seeds []graph.NodeID `json:"seeds"`
	}
	if err := json.Unmarshal(req.Body, &q); err != nil {
		return loadgen.Outcome{Status: http.StatusBadRequest}
	}
	_, sp := t.b.tr.start(ctx, "diffusion.worlds.query")
	res, err := t.ev.EvalBatch([][]graph.NodeID{q.Seeds}, diffusion.BatchOptions{Workers: 1, Poll: ctx.Err})
	sp.finish("")
	if err != nil {
		return loadgen.Outcome{Err: err}
	}
	if m := res[0].Estimate.Mean; !finite(m) || m < float64(len(q.Seeds)) || m > float64(t.n) {
		t.b.rep.invalid("point query %v: spread %v outside [%d, %d]", q.Seeds, m, len(q.Seeds), t.n)
	}
	return loadgen.Outcome{Status: http.StatusOK}
}

// replayCell replays the cell's phases at its sizes through the layer
// entry points — one sampling batch of θ sets, the inversion, the greedy
// cover and the evaluation — and cross-checks the cell's spread against an
// independent Monte-Carlo estimate.
func (b *bench) replayCell(g graph.G, cell core.Result) error {
	theta := cell.Lookups // IMM counts one lookup per RR set sampled
	sampler := diffusion.NewRRSampler(g, weights.IC)
	store := graphalgo.NewSetStore()
	var err error
	d := b.tr.timed("diffusion.rr.sample", func() {
		_, err = sampler.SampleBatch(store, theta, rng.New(serverSeed).Uint64(), 1, nil, nil)
	})
	if err != nil {
		return err
	}
	b.rep.set("diffusion.rr.sample_s", seconds(d))
	b.rep.set("diffusion.rr.sets", float64(store.Len()))
	b.rep.set("diffusion.rr.elems", float64(store.NumElems()))

	cp := b.invert(g, store)
	d = b.tr.timed("graphalgo.cover", func() { _, err = cp.GreedyMaxCoverPoll(cellK, nil) })
	if err != nil {
		return err
	}
	b.rep.set("graphalgo.cover_s", seconds(d))

	// The oracle's point query over the same sets, on the point queries'
	// seed sets: the rrset layer serve-cached mostly bypasses.
	ix, err := rrset.NewIndexFromStore(g.N(), store)
	if err != nil {
		return err
	}
	w := b.queryStream(g.N())
	var spreadOf []float64
	for i := uint64(0); i < spreadOfCalls; i++ {
		var q struct {
			Seeds []graph.NodeID `json:"seeds"`
		}
		if err := json.Unmarshal(w.Request(i).Body, &q); err != nil {
			return err
		}
		d := b.tr.timed("rrset.spread_of.replay", func() { ix.SpreadOf(q.Seeds) })
		spreadOf = append(spreadOf, float64(d.Nanoseconds())/1e3)
	}
	b.rep.set("rrset.spread_of_us", median(spreadOf))

	ev := diffusion.NewWorldEvaluator(g, weights.IC, cellEvalSims, serverSeed^0x5eed)
	var res []diffusion.BatchResult
	d = b.tr.timed("diffusion.worlds.eval", func() {
		res, err = ev.EvalBatch([][]graph.NodeID{cell.Seeds}, diffusion.BatchOptions{Workers: 1})
	})
	if err != nil {
		return err
	}
	b.rep.set("diffusion.worlds.eval_s", seconds(d))
	b.rep.set("diffusion.worlds.reached", res[0].Estimate.Mean*float64(res[0].Estimate.Runs))

	// The independent estimate uses other random streams, so the two
	// means agree only within their combined standard error.
	var mc diffusion.Estimate
	b.tr.timed("diffusion.mc.check", func() {
		mc = diffusion.EstimateSpreadParallel(g, weights.IC, cell.Seeds, cellEvalSims, b.seed^0x1d, runtime.NumCPU())
	})
	b.rep.ops(1, 0)
	se := math.Hypot(cell.Spread.StdErr, mc.StdErr)
	if diff := math.Abs(cell.Spread.Mean - mc.Mean); diff > 5*se {
		b.rep.invalid("cell spread %.1f and independent estimate %.1f differ by %.1f, more than 5 standard errors (%.1f)",
			cell.Spread.Mean, mc.Mean, diff, 5*se)
	}
	fmt.Fprintf(b.out, "perfbench: spread check: cell %.1f±%.1f, independent %.1f±%.1f\n",
		cell.Spread.Mean, cell.Spread.StdErr, mc.Mean, mc.StdErr)
	return nil
}
