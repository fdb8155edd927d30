package diffusion

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/weights"
)

// prefixChainSets returns the k-sweep shape: prefixes of one selection
// order, deliberately out of length order to exercise chain detection.
func prefixChainSets(t *testing.T, g *graph.Graph, lens []int, seed uint64) [][]graph.NodeID {
	t.Helper()
	r := rng.New(seed)
	perm := r.Perm(int(g.N()))
	maxLen := 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	full := make([]graph.NodeID, maxLen)
	for i := range full {
		full[i] = graph.NodeID(perm[i])
	}
	sets := make([][]graph.NodeID, len(lens))
	for i, l := range lens {
		sets[i] = full[:l:l]
	}
	return sets
}

// TestEvalBatchChainEqualsPerSet is the core exactness property: evaluating
// a prefix chain incrementally must equal evaluating every set standalone on
// the same worlds, world by world, for both models.
func TestEvalBatchChainEqualsPerSet(t *testing.T) {
	g := randomWCGraph(3, 200, 900)
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		ev := NewWorldEvaluator(g, model, 64, 11)
		sets := prefixChainSets(t, g, []int{5, 1, 9, 3, 7}, 5)
		// An unrelated set that shares no prefix: must land in its own chain
		// and still observe the same worlds.
		other := []graph.NodeID{g.N() - 1, g.N() - 2}
		sets = append(sets, other)
		batch, err := ev.EvalBatch(sets, BatchOptions{Workers: 1, KeepPerWorld: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, set := range sets {
			solo, err := ev.EvalBatch([][]graph.NodeID{set}, BatchOptions{Workers: 1, KeepPerWorld: true})
			if err != nil {
				t.Fatal(err)
			}
			for w := range solo[0].PerWorld {
				if batch[i].PerWorld[w] != solo[0].PerWorld[w] {
					t.Fatalf("model %v set %d world %d: batch %d standalone %d",
						model, i, w, batch[i].PerWorld[w], solo[0].PerWorld[w])
				}
			}
			if batch[i].Estimate != solo[0].Estimate {
				t.Fatalf("model %v set %d: estimates differ", model, i)
			}
		}
	}
}

// TestEvalBatchChainDetection pins the prefix-chain partition: the sweep
// prefixes share one chain in length order; the unrelated set is alone.
func TestEvalBatchChainDetection(t *testing.T) {
	g := randomWCGraph(3, 100, 400)
	sets := prefixChainSets(t, g, []int{5, 1, 9, 3, 7}, 5)
	sets = append(sets, []graph.NodeID{g.N() - 1, g.N() - 2})
	ev := NewWorldEvaluator(g, weights.IC, 4, 1)
	batch, err := ev.EvalBatch(sets, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	chainOf := batch[0].Chain
	wantPos := map[int]int{0: 2, 1: 0, 2: 4, 3: 1, 4: 3} // by length rank
	for i := 0; i < 5; i++ {
		if batch[i].Chain != chainOf {
			t.Fatalf("set %d in chain %d, want %d", i, batch[i].Chain, chainOf)
		}
		if batch[i].ChainPos != wantPos[i] {
			t.Fatalf("set %d at pos %d, want %d", i, batch[i].ChainPos, wantPos[i])
		}
	}
	if batch[5].Chain == chainOf || batch[5].ChainPos != 0 {
		t.Fatalf("unrelated set landed at chain %d pos %d", batch[5].Chain, batch[5].ChainPos)
	}
}

// TestEvalBatchMatchesEstimateSpread: the world evaluator and the forward
// MC estimator sample the same distribution, so at r=10k their estimates
// must overlap within ±3 combined standard errors (both models).
func TestEvalBatchMatchesEstimateSpread(t *testing.T) {
	g := randomWCGraph(7, 300, 1500)
	seeds := []graph.NodeID{0, 17, 42, 99, 123}
	const r = 10000
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		world := NewWorldEvaluator(g, model, r, 21).Evaluate(seeds, 1)
		mc := NewSimulator(g, model).EstimateSpread(seeds, r, 22)
		tol := 3 * math.Sqrt(world.StdErr*world.StdErr+mc.StdErr*mc.StdErr)
		if diff := math.Abs(world.Mean - mc.Mean); diff > tol {
			t.Fatalf("model %v: world %v vs MC %v differ by %v > %v",
				model, world, mc, diff, tol)
		}
	}
}

// TestEvalBatchClosedFormLine pins the world semantics against the closed
// form on the 2-arc path: σ({0}) = 1 + p + p² under both models.
func TestEvalBatchClosedFormLine(t *testing.T) {
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		for _, p := range []float64{0.2, 0.5, 0.9} {
			g := line(t, p)
			est := NewWorldEvaluator(g, model, 40000, 9).Evaluate([]graph.NodeID{0}, 1)
			want := 1 + p + p*p
			if math.Abs(est.Mean-want) > 4*est.StdErr+0.01 {
				t.Fatalf("model %v p=%v: σ=%v want %v (±%v)", model, p, est.Mean, want, est.StdErr)
			}
		}
	}
}

// TestEvalBatchDeterministicAcrossWorkers: the per-world spreads and the
// aggregated Estimate must be bit-identical for any worker count at a fixed
// seed — the determinism contract that makes parallel evaluation safe to
// enable everywhere.
func TestEvalBatchDeterministicAcrossWorkers(t *testing.T) {
	g := randomWCGraph(13, 250, 1100)
	sets := prefixChainSets(t, g, []int{1, 4, 8, 12}, 17)
	for _, model := range []weights.Model{weights.IC, weights.LT} {
		ev := NewWorldEvaluator(g, model, 500, 29)
		var ref []BatchResult
		for _, workers := range []int{1, 2, 8} {
			batch, err := ev.EvalBatch(sets, BatchOptions{Workers: workers, KeepPerWorld: true})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = batch
				continue
			}
			for i := range batch {
				if batch[i].Estimate != ref[i].Estimate {
					t.Fatalf("model %v workers=%d set %d: estimate %v != %v",
						model, workers, i, batch[i].Estimate, ref[i].Estimate)
				}
				for w := range batch[i].PerWorld {
					if batch[i].PerWorld[w] != ref[i].PerWorld[w] {
						t.Fatalf("model %v workers=%d set %d world %d differs",
							model, workers, i, w)
					}
				}
			}
		}
	}
}

// TestEvalBatchSharedWorldsAcrossCalls: separate EvalBatch calls on equal
// evaluator parameters observe identical worlds, so per-world spreads from
// different calls are directly comparable (cross-algorithm CRN).
func TestEvalBatchSharedWorldsAcrossCalls(t *testing.T) {
	g := randomWCGraph(19, 150, 700)
	a := []graph.NodeID{1, 2, 3}
	b := []graph.NodeID{4, 5, 6}
	together, err := NewWorldEvaluator(g, weights.IC, 200, 31).
		EvalBatch([][]graph.NodeID{a, b}, BatchOptions{Workers: 1, KeepPerWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	sepA, err := NewWorldEvaluator(g, weights.IC, 200, 31).
		EvalBatch([][]graph.NodeID{a}, BatchOptions{Workers: 1, KeepPerWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	for w := range sepA[0].PerWorld {
		if sepA[0].PerWorld[w] != together[0].PerWorld[w] {
			t.Fatalf("world %d: separate call saw %d, batched %d",
				w, sepA[0].PerWorld[w], together[0].PerWorld[w])
		}
	}
	mean, stderr, err := PairedDiff(together[0], together[1])
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(mean) || math.IsNaN(stderr) {
		t.Fatalf("paired diff %v ± %v", mean, stderr)
	}
}

func TestPairedDiffRequiresPerWorld(t *testing.T) {
	if _, _, err := PairedDiff(BatchResult{}, BatchResult{}); err == nil {
		t.Fatal("PairedDiff accepted results without per-world spreads")
	}
	a := BatchResult{PerWorld: make([]int32, 3)}
	b := BatchResult{PerWorld: make([]int32, 4)}
	if _, _, err := PairedDiff(a, b); err == nil {
		t.Fatal("PairedDiff accepted mismatched world counts")
	}
}

// TestEvalBatchAccounting: scratch is charged during the batch and
// reconciled on return — to zero when nothing is retained, to the matrix
// size when per-world spreads are kept.
func TestEvalBatchAccounting(t *testing.T) {
	g := randomWCGraph(23, 100, 400)
	sets := [][]graph.NodeID{{0}, {0, 1}}
	const r = 50
	for _, keep := range []bool{false, true} {
		ev := NewWorldEvaluator(g, weights.IC, r, 37)
		var net, peak int64
		_, err := ev.EvalBatch(sets, BatchOptions{
			Workers:      1,
			KeepPerWorld: keep,
			Account: func(delta int64) {
				net += delta
				if net > peak {
					peak = net
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(0)
		if keep {
			want = int64(len(sets)) * r * 4
		}
		if net != want {
			t.Fatalf("keep=%v: net accounted %d want %d", keep, net, want)
		}
		// The up-front charge covers the matrix, the arc table (8 B per
		// node + 8 B per arc) and one worker's scratch.
		covered := int64(len(sets))*r*4 + 8*int64(g.N()+1) + 8*g.M() + worldScratchBytes(g.N(), weights.IC)
		if peak < covered {
			t.Fatalf("keep=%v: peak %d never covered matrix + arc table + scratch (%d)", keep, peak, covered)
		}
	}
}

// TestEvalBatchPollAborts: a failing poll aborts the batch (serial and
// parallel paths) and reconciles interim memory charges away. The poll
// fails on its first call: the parallel supervisor's poll cadence depends
// on how often the scheduler runs the calling goroutine, so requiring N
// polls before the workers drain 5000 worlds is a race against the
// scheduler (and reliably lost under -race, where worker instrumentation
// starves the supervisor); one call is guaranteed by the progress-signal
// handshake for any batch that outlives the supervisor's first wakeup.
func TestEvalBatchPollAborts(t *testing.T) {
	g := randomWCGraph(23, 100, 400)
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		ev := NewWorldEvaluator(g, weights.IC, 5000, 41)
		var net int64
		_, err := ev.EvalBatch([][]graph.NodeID{{0, 1, 2}}, BatchOptions{
			Workers: workers,
			Account: func(delta int64) { net += delta },
			Poll:    func() error { return boom },
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err %v, want boom", workers, err)
		}
		if net != 0 {
			t.Fatalf("workers=%d: %d bytes left accounted after abort", workers, net)
		}
	}
}

// TestEvalBatchWorkerPanicSurfaces: a panic inside a worker's simulation
// kernel must re-raise on the calling goroutine (the resilience layer's
// supervisor turns it into a Panicked cell there).
func TestEvalBatchWorkerPanicSurfaces(t *testing.T) {
	g := randomWCGraph(29, 50, 200)
	ev := NewWorldEvaluator(g, weights.IC, 64, 43)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range seed did not surface as a panic")
		}
	}()
	// Node g.N() is out of range: mark[v] faults inside the workers.
	_, _ = ev.EvalBatch([][]graph.NodeID{{g.N()}}, BatchOptions{Workers: 4})
}

func TestEvalBatchEmpty(t *testing.T) {
	g := randomWCGraph(31, 20, 60)
	ev := NewWorldEvaluator(g, weights.IC, 10, 47)
	if res, err := ev.EvalBatch(nil, BatchOptions{}); err != nil || res != nil {
		t.Fatalf("empty batch: %v %v", res, err)
	}
	res, err := ev.EvalBatch([][]graph.NodeID{{}}, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Estimate.Mean != 0 {
		t.Fatalf("empty seed set spread %v, want 0", res[0].Estimate.Mean)
	}
}

func TestMarginalGainCtxCancelled(t *testing.T) {
	g := randomWCGraph(37, 100, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MarginalGainCtx(ctx, g, weights.IC, []graph.NodeID{0}, 1, 1000, 3); err == nil {
		t.Fatal("cancelled context did not abort MarginalGainCtx")
	}
	gain, err := MarginalGainCtx(context.Background(), g, weights.IC, nil, 0, 500, 3)
	if err != nil {
		t.Fatal(err)
	}
	if gain < 1 {
		t.Fatalf("gain of first seed %v, want ≥ 1 (the seed itself)", gain)
	}
}

// referencePerWorld evaluates every set from scratch in every world by the
// rule the compiled arc table must reproduce, read straight through the
// graph interface: out-arc i of u is live iff worldCoin(worldSeed,
// OutArcBase(u)+i) < its weight (IC); v follows the in-arc whose cumulative
// weight first exceeds worldCoin(worldSeed, M+v) (LT).
func referencePerWorld(g graph.G, model weights.Model, worlds int, seed uint64, sets [][]graph.NodeID) [][]int32 {
	out := make([][]int32, len(sets))
	for i := range out {
		out[i] = make([]int32, worlds)
	}
	for w := 0; w < worlds; w++ {
		ws := worldSeed(seed, w)
		chosenIn := func(v graph.NodeID) graph.NodeID {
			from, wt := g.InNeighbors(v)
			x := worldCoin(ws, g.M()+int64(v))
			acc := 0.0
			for i, u := range from {
				acc += wt[i]
				if x < acc {
					return u
				}
			}
			return -1
		}
		for si, set := range sets {
			active := make([]bool, g.N())
			var queue []graph.NodeID
			for _, v := range set {
				if !active[v] {
					active[v] = true
					queue = append(queue, v)
				}
			}
			for h := 0; h < len(queue); h++ {
				u := queue[h]
				to, wt := g.OutNeighbors(u)
				base := g.OutArcBase(u)
				for i, v := range to {
					if active[v] {
						continue
					}
					var live bool
					if model == weights.IC {
						live = worldCoin(ws, base+int64(i)) < wt[i]
					} else {
						live = chosenIn(v) == u
					}
					if live {
						active[v] = true
						queue = append(queue, v)
					}
				}
			}
			out[si][w] = int32(len(queue))
		}
	}
	return out
}

// namedGraph is one backend's view of a test graph.
type namedGraph struct {
	name string
	g    graph.G
}

// backendsOf returns g on the three graph backends: the CSR itself and the
// compact encoding of its binary file, memory-mapped and heap-resident.
func backendsOf(t *testing.T, g *graph.Graph) []namedGraph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.gimb")
	if err := graph.WriteBinary(g, path, graph.BinaryWriterOptions{}); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	out := []namedGraph{{"csr", g}}
	for _, b := range []struct {
		name string
		mmap bool
	}{{"compact", true}, {"compact-heap", false}} {
		c, err := graph.OpenBinary(path, graph.OpenBinaryOptions{Mmap: b.mmap})
		if err != nil {
			t.Fatalf("OpenBinary: %v", err)
		}
		t.Cleanup(func() { _ = c.Close() })
		out = append(out, namedGraph{b.name, c})
	}
	return out
}

// TestEvalBatchMatchesReference pins the compiled kernel to the
// interface-walking rule: per-world spreads equal the reference simulator
// for every model, backend, weight scheme and worker count.
func TestEvalBatchMatchesReference(t *testing.T) {
	base := randomWCGraph(53, 150, 700)
	sets := prefixChainSets(t, base, []int{6, 1, 3}, 59)
	sets = append(sets, []graph.NodeID{149, 7, 149, 0})
	schemes := []weights.Scheme{
		weights.WeightedCascade{},
		weights.DefaultTrivalency(61),
		weights.ICConstant{P: 0},
		weights.ICConstant{P: 0.12},
		weights.ICConstant{P: 1},
	}
	const r = 96
	for _, backend := range backendsOf(t, base) {
		for _, scheme := range schemes {
			g := scheme.Apply(backend.g)
			for _, model := range []weights.Model{weights.IC, weights.LT} {
				want := referencePerWorld(g, model, r, 67, sets)
				ev := NewWorldEvaluator(g, model, r, 67)
				for _, workers := range []int{1, 2, 7} {
					got, err := ev.EvalBatch(sets, BatchOptions{Workers: workers, KeepPerWorld: true})
					if err != nil {
						t.Fatal(err)
					}
					for i := range sets {
						for w := range want[i] {
							if got[i].PerWorld[w] != want[i][w] {
								t.Fatalf("%s %s %v workers=%d set %d world %d: spread %d, reference %d",
									backend.name, scheme.Name(), model, workers, i, w, got[i].PerWorld[w], want[i][w])
							}
						}
					}
				}
			}
		}
	}
}

// TestEvalBatchTieArcs runs the kernel's tie path end to end: on the
// one-arc graph 0→1, the weight is set from world 0's coin x for the arc so
// that its table threshold equals the coin's top 32 bits (a tie), once just
// above the coin (live) and once equal to it (dead, as worldCoin < w is
// strict).
func TestEvalBatchTieArcs(t *testing.T) {
	const seed = 71
	x := sampleSeed(worldSeed(seed, 0), 0)
	y := x >> 11
	for _, tc := range []struct {
		w    float64
		want int32
	}{{float64(y+1) / (1 << 53), 2}, {float64(y) / (1 << 53), 1}} {
		if _, tie := thresholdTest(x, arcThreshold(tc.w)); !tie {
			t.Fatalf("w=%v: coin %#x is not a tie", tc.w, x)
		}
		b := graph.NewBuilder(2, true)
		if err := b.AddEdge(0, 1, tc.w); err != nil {
			t.Fatal(err)
		}
		res, err := NewWorldEvaluator(b.Build(), weights.IC, 1, seed).
			EvalBatch([][]graph.NodeID{{0}}, BatchOptions{Workers: 1, KeepPerWorld: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := res[0].PerWorld[0]; got != tc.want {
			t.Fatalf("w=%v: spread %d, want %d", tc.w, got, tc.want)
		}
	}
}

// TestThresholdTestBoundaries checks the integer live test against the
// float rule float64(x>>11)/2^53 < w at boundary weights, with coins whose
// 53-bit value sits at T−1, T and T+1 for T = coinThreshold(w), so that
// the tie branch runs.
func TestThresholdTestBoundaries(t *testing.T) {
	const two53 = 1 << 53
	ws := []float64{0, -0.25, math.Inf(-1), math.NaN(), 0x1p-60, 1, 1.5, math.Inf(1)}
	for _, j := range []float64{1, 3, 1 << 21, 1<<21 + 1, 1 << 52, 1<<52 + 1, two53 - 1} {
		w := j / two53 // exact
		ws = append(ws, w, math.Nextafter(w, 0), math.Nextafter(w, 1))
		if got := coinThreshold(w); got != uint64(j) {
			t.Fatalf("coinThreshold(%d/2^53) = %d, want %d", uint64(j), got, uint64(j))
		}
		if got := coinThreshold(math.Nextafter(w, 1)); got != uint64(j)+1 {
			t.Fatalf("coinThreshold(next above %d/2^53) = %d, want %d", uint64(j), got, uint64(j)+1)
		}
	}
	ties := 0
	for _, w := range ws {
		T := coinThreshold(w)
		thr := arcThreshold(w)
		for _, y := range []uint64{T - 1, T, T + 1} {
			if y >= two53 { // T−1 wrapped below 0, or past the 53-bit range
				continue
			}
			for _, low := range []uint64{0, 1<<11 - 1} {
				x := y<<11 | low
				want := float64(x>>11)/two53 < w // worldCoin's rule
				got, tie := thresholdTest(x, thr)
				if tie {
					ties++
					got = want // the kernel re-decides ties by the float rule
				}
				if got != want {
					t.Fatalf("w=%v x=%#x (thr %d, T %d, tie %v): live %v, float rule %v", w, x, thr, T, tie, got, want)
				}
			}
		}
	}
	if ties == 0 {
		t.Fatal("no case reached the tie branch")
	}
}
