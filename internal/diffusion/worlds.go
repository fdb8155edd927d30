package diffusion

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/sched"
	"github.com/sigdata/goinfmax/internal/weights"
)

// Batched common-world spread evaluation
//
// The decoupled Spread evaluator (paper Alg. 1, §5.1) is the platform's
// dominant fixed cost: every benchmark cell pays EvalSims (paper: 10,000)
// full forward simulations, so a 9-point k-sweep re-simulates ~90k cascades
// over heavily overlapping seed sets. Kempe et al.'s live-edge
// characterization — already exploited by the RR-set and snapshot substrates
// — says a sampled world is just a deterministic subgraph, so MANY seed sets
// can be evaluated against the SAME worlds, and a chain S_1 ⊂ S_2 ⊂ … (as
// produced by greedy/CELF/RR selections across a k-sweep) costs one
// incremental frontier extension per world instead of one full pass per set.
//
// A WorldEvaluator fixes R worlds for (graph, model, seed). World w is never
// materialized: its coins are O(1) arc-indexed functions — the arcIndex-th
// splitmix64 output of the world's seed, exactly the indexed-stream scheme
// of the parallel RR sampler (rrbatch.go). Because a coin depends only on
// (worldSeed, arcIndex), every seed set observes byte-identical worlds
// regardless of traversal order, which gives three properties at once:
//
//   - incremental chain evaluation is EXACT (equal to evaluating each set
//     from scratch on the same worlds — generalizing Simulator.RunTwoPhase
//     from two phases to N);
//   - evaluation parallelizes over worlds with a deterministic world-order
//     merge, so the Estimate is bit-identical for any worker count at a
//     fixed seed (the PR-4 SampleBatch contract);
//   - two algorithms evaluated on the same cell share worlds — common
//     random numbers — so their per-world spreads support paired-difference
//     comparison with far smaller variance than independent estimates.
//
// The world semantics mirror liveedge.go: under IC, arc a is live iff
// coin(worldSeed, a) < weight(a); under LT, node v selects at most one
// incoming arc with a single uniform draw keyed on M+v (domain-separated
// from the arc indices). Reachability from the seed set over live/selected
// arcs is distributed exactly as the forward cascade.

// worldSeed returns the seed of world w: the w-th indexed splitmix64 output
// of the evaluator seed.
func worldSeed(base uint64, w int) uint64 { return sampleSeed(base, int64(w)) }

// worldCoin returns a uniform [0,1) draw that is a pure function of
// (worldSeed, index): the index-th splitmix64 output of worldSeed, mapped to
// [0,1) exactly like rng.Source.Float64.
func worldCoin(worldSeed uint64, index int64) float64 {
	return float64(sampleSeed(worldSeed, index)>>11) / (1 << 53)
}

// WorldEvaluator evaluates spread against R fixed live-edge worlds. It is
// immutable and safe for concurrent use; each EvalBatch call allocates its
// own scratch (one simulator per worker).
type WorldEvaluator struct {
	g      graph.G
	model  weights.Model
	worlds int
	seed   uint64
	tab    *arcTable
}

// NewWorldEvaluator fixes worlds live-edge worlds over g under the given
// model, all derived from seed. Two evaluators with identical (g, model,
// worlds, seed) observe identical worlds, so spreads computed by separate
// calls — even separate processes — are directly comparable world by world.
// It compiles g's out-arcs into the evaluator's arc table once, in O(n+m),
// through the graph.G interface, so every backend gets the same kernel.
func NewWorldEvaluator(g graph.G, model weights.Model, worlds int, seed uint64) *WorldEvaluator {
	if worlds <= 0 {
		worlds = 1
	}
	return &WorldEvaluator{g: g, model: model, worlds: worlds, seed: seed, tab: compileArcs(g)}
}

// arcTable is the evaluator's read-only compiled copy of g's out-adjacency:
// the cascade kernel reads one 8-byte record per scanned arc from a single
// contiguous stream instead of calling the graph interface (and, on the
// compact backend, decoding varints) per frontier node. off[u] equals
// g.OutArcBase(u), so arcs is indexed by the global arc index a that keys
// the world coins.
type arcTable struct {
	off  []int64   // n+1 arc offsets; off[n] = m
	arcs []liveArc // one record per global arc index
}

// liveArc is one compiled out-arc: its head and its 32-bit coin threshold
// (arcThreshold).
type liveArc struct {
	head graph.NodeID
	thr  uint32
}

// compileArcs builds the arc table of g. OutArcBase is dense in [0, m) and
// follows node order on every backend, so the records are written in order.
func compileArcs(g graph.G) *arcTable {
	n := g.N()
	t := &arcTable{off: make([]int64, n+1), arcs: make([]liveArc, g.M())}
	for u := graph.NodeID(0); u < n; u++ {
		base := g.OutArcBase(u)
		to, w := g.OutNeighbors(u)
		t.off[u] = base
		for i, v := range to {
			t.arcs[base+int64(i)] = liveArc{head: v, thr: arcThreshold(w[i])}
		}
	}
	t.off[n] = g.M()
	return t
}

// bytes is the table's resident footprint: 8 B per node and 8 B per arc.
func (t *arcTable) bytes() int64 {
	return int64(cap(t.off))*8 + int64(cap(t.arcs))*8
}

// coinThreshold returns the integer form of the IC live test: for every
// 64-bit coin x, worldCoin's float comparison float64(x>>11)/2^53 < w holds
// exactly when x>>11 < coinThreshold(w). Scaling by 2^53 is exact, so the
// test is x>>11 < w·2^53, i.e. x>>11 < ceil(w·2^53) for the integer x>>11.
// Weights at or below zero, and NaN (every comparison false), give 0 — never
// live; weights at or above one give 2^53 — always live.
func coinThreshold(w float64) uint64 {
	switch {
	case !(w > 0):
		return 0
	case w >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(w * (1 << 53)))
}

// arcThreshold is the table's 32-bit threshold of weight w: the top 32 of
// coinThreshold's 54 bits, saturated at 2^32−1 for w ≥ 1.
func arcThreshold(w float64) uint32 {
	return uint32(min(coinThreshold(w)>>21, math.MaxUint32))
}

// thresholdTest runs the IC live test of coin x against a table threshold.
// With k = x>>32 the top 32 bits of x>>11, T the full coinThreshold and
// thr = min(T>>21, 2^32−1): k < thr implies x>>11 < (k+1)·2^21 ≤ thr·2^21
// ≤ T, live; k > thr implies x>>11 ≥ (thr+1)·2^21 ≥ T, dead. Only k == thr
// is undecided (a tie), which a coin hits with probability about 2^-32;
// the caller re-decides it with worldCoin's float rule.
func thresholdTest(x uint64, thr uint32) (live, tie bool) {
	k := uint32(x >> 32)
	return k < thr, k == thr
}

// Worlds returns the number of fixed worlds R.
func (e *WorldEvaluator) Worlds() int { return e.worlds }

// Seed returns the evaluator seed the worlds derive from.
func (e *WorldEvaluator) Seed() uint64 { return e.seed }

// BatchOptions tunes one EvalBatch call. The zero value is valid: all
// available cores, no polling, no accounting, estimates only.
type BatchOptions struct {
	// Workers parallelizes over worlds (< 1 means GOMAXPROCS). The results
	// are bit-identical for any value: the sched executor steals world
	// index ranges, workers write into disjoint world-keyed slots of one
	// spread matrix, and the reduction walks worlds sequentially
	// afterwards — which worker simulated a world never matters.
	Workers int
	// Chunk overrides the work-stealing claim granularity in worlds (0 =
	// automatic; see sched.Options.Chunk). Results are bit-identical for
	// any value.
	Chunk int64
	// Poll, when non-nil, is consulted between worlds (serially, or from
	// the supervising goroutine while workers run); its error aborts the
	// batch. Only ever invoked from the calling goroutine.
	Poll func() error
	// Account, when non-nil, is charged the batch's scratch memory (spread
	// matrix + per-worker simulator state) up front and reconciled on
	// return to the retained bytes (the per-world matrix when KeepPerWorld,
	// zero otherwise), so memory-budgeted runs crash faithfully mid-batch.
	// Only ever invoked from the calling goroutine.
	Account func(delta int64)
	// KeepPerWorld retains each set's per-world spreads in BatchResult for
	// common-random-numbers comparisons (see PairedDiff).
	KeepPerWorld bool
}

// BatchResult is the evaluation of one seed set of a batch.
type BatchResult struct {
	// Estimate aggregates the set's spread over the R shared worlds.
	Estimate Estimate
	// PerWorld is the spread observed in each world, in world order; nil
	// unless BatchOptions.KeepPerWorld was set. Two sets evaluated against
	// the same evaluator seed can be compared world by world (PairedDiff).
	PerWorld []int32
	// EvalTime is the simulation time attributed to this set: the summed
	// cost of its incremental frontier extensions across all worlds and
	// workers. Chain reuse makes the attributed times of a sweep sum to
	// roughly one full pass instead of one pass per cell.
	EvalTime time.Duration
	// Chain and ChainPos locate the set in the detected prefix-chain
	// partition: sets in the same chain were evaluated incrementally.
	Chain, ChainPos int
}

// EvalBatch evaluates every seed set against the shared worlds, detecting
// prefix chains (set A precedes set B when A equals B's selection-order
// prefix) and evaluating each chain with one incremental frontier extension
// per world. Results are returned in input order and are bit-identical for
// any worker count.
func (e *WorldEvaluator) EvalBatch(sets [][]graph.NodeID, opt BatchOptions) ([]BatchResult, error) {
	m := len(sets)
	if m == 0 {
		return nil, nil
	}
	r := e.worlds
	workers := sched.Workers(int64(r), opt.Workers)

	chains := detectChains(sets)
	results := make([]BatchResult, m)
	for c, chain := range chains {
		for pos, idx := range chain {
			results[idx].Chain, results[idx].ChainPos = c, pos
		}
	}

	// One flat spread matrix, rows in world order: workers fill disjoint
	// column ranges and the reduction below walks worlds sequentially, so
	// float summation order — hence the Estimate — never depends on the
	// worker count.
	spreads := make([]int32, m*r)
	nanos := make([]int64, m)

	charged := int64(0)
	charge := func(target int64) {
		if opt.Account != nil && target != charged {
			opt.Account(target - charged)
			charged = target
		}
	}
	matrixBytes := int64(m) * int64(r) * 4
	charge(matrixBytes + e.tab.bytes() + int64(workers)*worldScratchBytes(e.g.N(), e.model))

	var err error
	if workers == 1 {
		err = e.evalWorlds(newWorldSim(e), sets, chains, 0, r, spreads, nanos, opt.Poll, nil, nil)
	} else {
		err = e.evalParallel(sets, chains, spreads, nanos, workers, opt.Chunk, opt.Poll)
	}
	if err != nil {
		// The batch is discarded; reconcile the scratch charges away so the
		// accounted figure tracks resident memory again.
		charge(0)
		return nil, err
	}

	for i := range results {
		row := spreads[i*r : (i+1)*r : (i+1)*r]
		var sum, sumSq float64
		for _, sp := range row {
			f := float64(sp)
			sum += f
			sumSq += f * f
		}
		results[i].Estimate = finishEstimate(sum, sumSq, r)
		results[i].EvalTime = time.Duration(nanos[i])
		if opt.KeepPerWorld {
			results[i].PerWorld = row
		}
	}
	if opt.KeepPerWorld {
		charge(matrixBytes)
	} else {
		charge(0)
	}
	return results, nil
}

// Evaluate is the single-set convenience form of EvalBatch.
func (e *WorldEvaluator) Evaluate(seeds []graph.NodeID, workers int) Estimate {
	res, err := e.EvalBatch([][]graph.NodeID{seeds}, BatchOptions{Workers: workers})
	if err != nil { // unreachable: no Poll means no abort path
		panic(err)
	}
	return res[0].Estimate
}

// PairedDiff returns the common-random-numbers estimate of σ(B) − σ(A): the
// mean and standard error of the per-world spread difference b−a. Both
// results must carry per-world spreads (KeepPerWorld) from evaluators with
// identical worlds; PairedDiff reports an error otherwise. Because the two
// sets observed the same worlds, the difference variance excludes the shared
// world-to-world variation, which is what makes cross-algorithm comparisons
// on one cell resolvable at far fewer worlds.
func PairedDiff(a, b BatchResult) (mean, stderr float64, err error) {
	if a.PerWorld == nil || b.PerWorld == nil {
		return 0, 0, fmt.Errorf("diffusion: PairedDiff needs per-world spreads (set BatchOptions.KeepPerWorld)")
	}
	if len(a.PerWorld) != len(b.PerWorld) {
		return 0, 0, fmt.Errorf("diffusion: PairedDiff world counts differ (%d vs %d)", len(a.PerWorld), len(b.PerWorld))
	}
	var sum, sumSq float64
	for w := range a.PerWorld {
		d := float64(b.PerWorld[w] - a.PerWorld[w])
		sum += d
		sumSq += d * d
	}
	est := finishEstimate(sum, sumSq, len(a.PerWorld))
	return est.Mean, est.StdErr, nil
}

// detectChains partitions the batch into prefix chains: processing sets in
// non-decreasing length order, each set joins the chain whose tail is its
// longest selection-order prefix, or starts a new chain. A k-sweep's greedy
// selections collapse into one chain; unrelated sets become singleton chains
// and still share the worlds.
func detectChains(sets [][]graph.NodeID) [][]int {
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return len(sets[order[a]]) < len(sets[order[b]]) })
	var chains [][]int
	for _, idx := range order {
		best, bestLen := -1, -1
		for c, chain := range chains {
			tail := sets[chain[len(chain)-1]]
			if len(tail) > bestLen && isListPrefix(tail, sets[idx]) {
				best, bestLen = c, len(tail)
			}
		}
		if best >= 0 {
			chains[best] = append(chains[best], idx)
		} else {
			chains = append(chains, []int{idx})
		}
	}
	return chains
}

// isListPrefix reports whether a equals b's leading len(a) elements. Order
// matters: chains follow selection order, matching how greedy-style sweeps
// extend their seed lists.
func isListPrefix(a, b []graph.NodeID) bool {
	if len(a) > len(b) {
		return false
	}
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// evalWorlds evaluates worlds [lo, hi) serially on sim, writing each set's
// spread into column w of the matrix and accumulating per-set simulation
// nanoseconds. poll (serial path) aborts the batch; stop (parallel path) is
// the supervisor's cheap abort flag and progress its per-world completion
// signal (non-blocking: a full buffer means the supervisor is already awake).
func (e *WorldEvaluator) evalWorlds(sim *worldSim, sets [][]graph.NodeID, chains [][]int, lo, hi int, spreads []int32, nanos []int64, poll func() error, stop *atomic.Bool, progress chan<- struct{}) error {
	r := e.worlds
	for w := lo; w < hi; w++ {
		if poll != nil {
			if err := poll(); err != nil {
				return err
			}
		}
		if stop != nil && stop.Load() {
			return nil
		}
		if progress != nil {
			select {
			case progress <- struct{}{}:
			default:
			}
		}
		sim.setWorld(worldSeed(e.seed, w))
		for _, chain := range chains {
			sim.begin()
			prefix := 0
			for _, idx := range chain {
				set := sets[idx]
				t0 := time.Now()
				sp := sim.extend(set[prefix:])
				nanos[idx] += int64(time.Since(t0))
				spreads[idx*r+w] = sp
				prefix = len(set)
			}
		}
	}
	return nil
}

// evalParallel fans the world range out through the sched work-stealing
// executor: cascade cost varies wildly across worlds (a world whose coins
// percolate the giant component costs orders of magnitude more than one
// that quenches every frontier), so static contiguous chunks leave workers
// idle behind the unlucky one. Workers write disjoint world-keyed matrix
// slots and private nano counters (summed afterwards — integer addition,
// order-independent); sched supervises from the calling goroutine: it runs
// Poll there, re-raises worker panics after the join, and the shared stop
// flag aborts mid-chunk at world granularity. Poll cadence is driven by
// per-world progress signals rather than wall-clock alone: a pure ticker
// delivers almost no ticks on a loaded or race-instrumented runtime, which
// would let a failing Poll slip past a short batch entirely.
func (e *WorldEvaluator) evalParallel(sets [][]graph.NodeID, chains [][]int, spreads []int32, nanos []int64, workers int, chunk int64, poll func() error) error {
	var stop atomic.Bool
	// Per-worker scratch, padded to the cache-line stride and created
	// lazily on the worker's own goroutine (sched's affinity guarantee).
	type wscratch struct {
		sim   *worldSim
		local []int64
		_     [64 - 32]byte
	}
	scratch := make([]wscratch, workers)
	progress := make(chan struct{}, 1)
	body := func(w int, lo, hi int64) {
		sc := &scratch[w]
		if sc.sim == nil {
			sc.sim = newWorldSim(e)
			sc.local = make([]int64, len(sets))
		}
		_ = e.evalWorlds(sc.sim, sets, chains, int(lo), int(hi), spreads, sc.local, nil, &stop, progress)
	}
	var pollFn func() error
	if poll != nil {
		pollFn = func() error {
			if err := poll(); err != nil {
				stop.Store(true)
				return err
			}
			return nil
		}
	}
	if err := sched.Run(int64(e.worlds), sched.Options{Workers: workers, Chunk: chunk, Poll: pollFn, Progress: progress}, body); err != nil {
		return err
	}
	for i := range nanos {
		for w := range scratch {
			if scratch[w].local != nil {
				nanos[i] += scratch[w].local[i]
			}
		}
	}
	return nil
}

// worldScratchBytes upper-bounds one worldSim's resident scratch: the mark
// bitset plus the (at most n-long) frontier queue, and for LT the per-world
// arc-choice cache. Charged per worker by EvalBatch. The arc table (8 B per
// node + 8 B per arc, arcTable.bytes) is shared by every worker and charged
// once per batch on top.
func worldScratchBytes(n int32, model weights.Model) int64 {
	b := int64(n)/8 + int64(n)*4 // mark bitset (n/8) + queue capacity bound (4n)
	if model == weights.LT {
		b += int64(n) * 8 // ltStamp (4n) + ltChosen (4n)
	}
	return b
}

// worldSim simulates cascades inside fixed coin-indexed worlds. It reuses
// per-sim scratch and is not safe for concurrent use; EvalBatch creates one
// per worker.
type worldSim struct {
	g     graph.G
	tab   *arcTable
	model weights.Model
	m     int64 // arc count: LT node draws are keyed on m+v

	worldSeed uint64

	// Active-set membership is a word-packed bitset (the frontier test is
	// the hottest load of the cascade loop; one bit per node touches 32×
	// fewer cache lines than the uint32 epoch stamps it replaced). queue
	// holds every active node of the current chain — it is both the
	// processed/unprocessed frontier split (the head index in extend*) and
	// the cumulative active list, so its length IS the cumulative spread —
	// and doubles as the incremental clear list: begin unmarks the previous
	// chain's members in O(spread) instead of O(n).
	mark  graphalgo.Bitset
	queue []graph.NodeID

	// LT arc choices, stamped per world: chosen[v] is v's selected
	// in-neighbor in the current world (-1 = none), computed lazily on
	// first probe and valid for every chain evaluated in the world. These
	// stay epoch-stamped (not a bitset): the probes are sparse and random-
	// order, so there is no member list to replay for an incremental clear,
	// and an O(n) clear per world would swamp small-cascade worlds.
	ltStamp    []uint32
	ltChosen   []graph.NodeID
	worldEpoch uint32
}

func newWorldSim(e *WorldEvaluator) *worldSim {
	g := graph.View(e.g) // private decode buffers: one worldSim per worker
	n := g.N()
	model := e.model
	s := &worldSim{
		g:     g,
		tab:   e.tab,
		model: model,
		m:     g.M(),
		mark:  graphalgo.NewBitset(int(n)),
		queue: make([]graph.NodeID, 0, 1024),
	}
	if model == weights.LT {
		s.ltStamp = make([]uint32, n)
		s.ltChosen = make([]graph.NodeID, n)
	}
	return s
}

// setWorld switches to the world drawn from seed, invalidating the LT
// choice cache.
func (s *worldSim) setWorld(seed uint64) {
	s.worldSeed = seed
	if s.ltStamp != nil {
		s.worldEpoch++
		if s.worldEpoch == 0 { // wrapped: reset stamps once every 2^32 worlds
			for i := range s.ltStamp {
				s.ltStamp[i] = 0
			}
			s.worldEpoch = 1
		}
	}
}

// begin starts a fresh chain in the current world: empty active set. The
// previous chain's marks are cleared by replaying its queue — O(spread),
// not O(n).
func (s *worldSim) begin() {
	for _, v := range s.queue {
		s.mark.Clear(int(v))
	}
	s.queue = s.queue[:0]
}

// extend activates the given seeds on top of the chain's current active set
// and runs the frontier to quiescence, returning the CUMULATIVE spread
// Γ(all seeds so far). Exact by the live-edge view: reachability in a fixed
// subgraph is monotone under seed union, so extending from the new seeds
// alone equals re-running the full set from scratch.
func (s *worldSim) extend(seeds []graph.NodeID) int32 {
	head := len(s.queue)
	for _, v := range seeds {
		if s.mark.Test(int(v)) {
			continue // duplicate or already activated by an earlier phase
		}
		s.mark.Set(int(v))
		s.queue = append(s.queue, v)
	}
	switch s.model {
	case weights.IC:
		s.extendIC(head)
	case weights.LT:
		s.extendLT(head)
	default:
		panic(fmt.Sprintf("diffusion: unknown model %v", s.model))
	}
	return int32(len(s.queue))
}

// extendIC processes the frontier from queue index head: arc a=(u,v) is
// live iff its indexed coin clears the arc weight, decided on the table's
// integer threshold (thresholdTest) and, on a tie, by tieLive. Both
// outcomes per arc — visited, live — are close to coin flips, so the loop
// does not branch on them: it draws every scanned arc's coin, stores the
// head in the next queue slot unconditionally (the queue is first grown by
// u's degree; slots past its length are dead) and advances the queue by the
// branch-free Bitset.SetIf result.
func (s *worldSim) extendIC(head int) {
	off, arcs, ws := s.tab.off, s.tab.arcs, s.worldSeed
	mark, queue := s.mark, s.queue
	for ; head < len(queue); head++ {
		u := queue[head]
		lo, hi := off[u], off[u+1]
		n, deg := len(queue), int(hi-lo)
		q := slices.Grow(queue, deg)[:n+deg]
		for i, arc := range arcs[lo:hi] {
			live, tie := thresholdTest(sampleSeed(ws, lo+int64(i)), arc.thr)
			if tie {
				live = s.tieLive(u, i)
			}
			q[n] = arc.head
			n += mark.SetIf(int(arc.head), live)
		}
		queue = q[:n]
	}
	s.queue = queue
}

// tieLive decides out-arc i of node u by the float rule, worldCoin <
// weight, reading the weight through the graph.
func (s *worldSim) tieLive(u graph.NodeID, i int) bool {
	_, w := s.g.OutNeighbors(u)
	return worldCoin(s.worldSeed, s.tab.off[u]+int64(i)) < w[i]
}

// extendLT processes the frontier from queue index head: v activates when
// its in-arc choice for this world points at an active node.
func (s *worldSim) extendLT(head int) {
	off, arcs := s.tab.off, s.tab.arcs
	for ; head < len(s.queue); head++ {
		u := s.queue[head]
		for _, arc := range arcs[off[u]:off[u+1]] {
			v := arc.head
			if s.mark.Test(int(v)) {
				continue
			}
			if s.chosenIn(v) == u {
				s.mark.Set(int(v))
				s.queue = append(s.queue, v)
			}
		}
	}
}

// chosenIn returns v's selected in-neighbor in the current world (-1 when v
// selects no arc), computing it lazily from one node-indexed draw: the
// in-arc whose cumulative weight first exceeds the draw, exactly the
// RRSampler.pickOneIn scan. With parallel arcs the choice lands on a
// specific arc, but activation only needs the arc's source.
func (s *worldSim) chosenIn(v graph.NodeID) graph.NodeID {
	if s.ltStamp[v] != s.worldEpoch {
		s.ltStamp[v] = s.worldEpoch
		s.ltChosen[v] = -1
		from, w := s.g.InNeighbors(v)
		x := worldCoin(s.worldSeed, s.m+int64(v))
		acc := 0.0
		for i, u := range from {
			acc += w[i]
			if x < acc {
				s.ltChosen[v] = u
				break
			}
		}
	}
	return s.ltChosen[v]
}
