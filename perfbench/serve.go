package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/sigdata/goinfmax/internal/diffusion"
	"github.com/sigdata/goinfmax/internal/graph"
	"github.com/sigdata/goinfmax/internal/graphalgo"
	"github.com/sigdata/goinfmax/internal/loadgen"
	"github.com/sigdata/goinfmax/internal/persist"
	"github.com/sigdata/goinfmax/internal/rng"
	"github.com/sigdata/goinfmax/internal/serve"
	"github.com/sigdata/goinfmax/internal/weights"
)

// serveCachedPlan is the frozen open-loop load of serve-cached.
var serveCachedPlan = loadPlan{light: 1400, busy: 2100, sloMS: 100}

const (
	// topKSeeds is the k of the top-k answer that select_s, eval_s and
	// spread measure on serve-cached, matching the cell's k.
	topKSeeds = 50
	// topEvalSims is the MC refinement of the top-k answer's spread, the
	// refinement level serve-cached's cold point queries ask for.
	topEvalSims = 1000
	// selectCalls and evalCalls are the top-k requests per measurement;
	// each run measures before each load round and after the last.
	selectCalls = 101
	evalCalls   = 21
)

// servingSetup is one booted server.
type servingSetup struct {
	g      graph.G
	oracle serve.Oracle
	srv    *serve.Server
	h      *checkedHandler
}

// newServer wraps oracle in a server with the default 1024-entry cache
// (and, when tracing, in a timing decorator) behind the output-checking
// handler.
func (b *bench) newServer(g graph.G, o serve.Oracle) (*servingSetup, error) {
	served := o
	if b.tr != nil {
		served = tracedOracle{Oracle: o, tr: b.tr}
	}
	srv, err := serve.New(serve.Config{
		Oracle: served, Graph: g, Model: weights.IC, SchemeName: "WC",
		Seed: serverSeed,
	})
	if err != nil {
		return nil, err
	}
	return &servingSetup{g: g, oracle: o, srv: srv,
		h: &checkedHandler{h: srv.Handler(), n: g.N(), b: b}}, nil
}

func runServeCached(b *bench) error {
	path := filepath.Join(b.scratch, "oracle.snap")
	spec := func(g graph.G, logf func(string, ...interface{})) serve.BootSpec {
		return serve.BootSpec{Backend: "rrset", Graph: g, Model: weights.IC, Seed: serverSeed,
			SnapshotPath: path, Logf: logf}
	}
	// The snapshot is written before set-up is timed.
	g, err := b.weightedGraph()
	if err != nil {
		return err
	}
	if _, err := serve.StartOracle(context.Background(), spec(g, nil)); err != nil {
		return err
	}
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("oracle snapshot was not written: %w", err)
	}

	s, err := timedSetups(b, func() (*servingSetup, time.Duration, error) {
		g, gd, err := b.buildGraph()
		if err != nil {
			return nil, 0, err
		}
		loaded := false
		logf := func(format string, args ...interface{}) {
			loaded = loaded || strings.Contains(fmt.Sprintf(format, args...), "loaded from snapshot")
		}
		var lc *serve.Lifecycle
		b.tr.timed("serve.coldstart", func() { lc, err = serve.StartOracle(context.Background(), spec(g, logf)) })
		if err != nil {
			return nil, 0, err
		}
		if !loaded {
			return nil, 0, fmt.Errorf("the oracle was rebuilt instead of loaded from its snapshot")
		}
		o, _, _ := lc.CurrentOracle()
		s, err := b.newServer(g, o)
		return s, gd, err
	})
	if err != nil {
		return err
	}
	w := loadgen.Workload{Seed: b.seed ^ 0xcace, Nodes: s.g.N(), HotFrac: 0.9, EvalSims: topEvalSims}.WithDefaults()
	if err := b.measureServing(s, w); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	if err := b.replayBuild(s.g); err != nil {
		return err
	}
	return b.replayPersist(s.g, path)
}

// measureServing measures one booted server: the load rounds, with the
// top-k answer measured between them, and the server's own counters.
func (b *bench) measureServing(s *servingSetup, w loadgen.Workload) error {
	var top topK
	target := &streamTarget{inner: &loadgen.HandlerTarget{H: s.h}, w: w}
	if err := b.measureLoad(newDriver(target, w), serveCachedPlan, func() error { return top.measure(b, s) }); err != nil {
		return err
	}
	b.rep.set("select_s", median(top.selects))
	b.rep.set("eval_s", median(top.evals))
	b.rep.set("spread", top.spread)
	b.rep.set("peak_mem_mb", float64(s.oracle.IndexBytes())/(1<<20))
	st := s.srv.Stats()
	if looked := st.CacheHits + st.CacheMisses; looked > 0 {
		b.rep.set("serve.cache.hit_ratio", float64(st.CacheHits)/float64(looked))
	}
	b.rep.set("serve.rejected", float64(st.Rejected))
	if b.tr != nil {
		b.replayRefine(s)
	}
	return nil
}

// topK collects the latencies of the top-k answer: /v1/seeds for k seeds,
// then /v1/spread refining the spread of the answer.
type topK struct {
	selects, evals []float64
	spread         float64
}

// measure asks for the top-k answer selectCalls times and for its
// refined spread evalCalls times.
func (t *topK) measure(b *bench, s *servingSetup) error {
	settle()
	var seeds []graph.NodeID
	for i := 0; i < selectCalls; i++ {
		body, d, err := b.call(s.h, "/v1/seeds", fmt.Sprintf(`{"k":%d}`, topKSeeds))
		if err != nil {
			return err
		}
		var resp struct {
			Seeds []graph.NodeID `json:"seeds"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("top-%d answer: %w", topKSeeds, err)
		}
		seeds = resp.Seeds
		t.selects = append(t.selects, seconds(d))
	}
	req, err := json.Marshal(map[string]interface{}{"seeds": seeds, "evalsims": topEvalSims})
	if err != nil {
		return err
	}
	for i := 0; i < evalCalls; i++ {
		body, d, err := b.call(s.h, "/v1/spread", string(req))
		if err != nil {
			return err
		}
		var resp struct {
			Spread float64 `json:"spread"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("top-%d spread: %w", topKSeeds, err)
		}
		t.spread = resp.Spread
		t.evals = append(t.evals, seconds(d))
	}
	return nil
}

// call sends one request through the checked handler and returns the
// body of a 200 answer and its latency; any other status is an error.
func (b *bench) call(h http.Handler, path, body string) ([]byte, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	d := time.Since(start)
	b.rep.ops(1, 0)
	if rec.Code != http.StatusOK {
		return nil, d, fmt.Errorf("%s %s: status %d: %s", path, body, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), d, nil
}

// streamTarget issues one continuous request stream across all phases.
// loadgen.Driver restarts every phase at stream index 0; without this, a
// cold request of one phase would come back as a cache hit in the next.
type streamTarget struct {
	inner loadgen.Target
	w     loadgen.Workload
	next  atomic.Uint64
}

func (t *streamTarget) Do(ctx context.Context, _ loadgen.Request) loadgen.Outcome {
	return t.inner.Do(ctx, t.w.Request(t.next.Add(1)-1))
}

// checkedHandler sits in front of the server: it checks every 200 answer
// (a malformed or wrong body counts as a failed operation), and in traced
// runs opens the request's root span, named by route and cache outcome.
type checkedHandler struct {
	h http.Handler
	n int32
	b *bench

	mu   sync.Mutex
	cold []refineCall // traced runs: refined point queries that missed the cache
}

// refineCall is one MC-refined point query the server computed.
type refineCall struct {
	seeds    []graph.NodeID
	evalSims int
}

// maxRefineReplays bounds the refined queries kept for replay.
const maxRefineReplays = 50

type captureWriter struct {
	http.ResponseWriter
	status int
	body   bytes.Buffer
}

func (c *captureWriter) WriteHeader(status int) {
	c.status = status
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	c.body.Write(p)
	return c.ResponseWriter.Write(p)
}

func (c *checkedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqBody, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(reqBody))
	ctx, sp := c.b.tr.start(r.Context(), "serve.handler")
	cw := &captureWriter{ResponseWriter: w}
	c.h.ServeHTTP(cw, r.WithContext(ctx))
	route := strings.TrimPrefix(r.URL.Path, "/v1/")
	outcome := "miss"
	if w.Header().Get("X-Cache") == "hit" {
		outcome = "hit"
	}
	sp.finish("serve.handler." + route + "." + outcome)
	if cw.status != http.StatusOK {
		return // measureLoad books non-2xx answers as failures
	}
	if err := c.check(route, reqBody, cw.body.Bytes(), outcome == "hit"); err != nil {
		c.b.rep.invalid("%s %s: %v", r.URL.Path, reqBody, err)
	}
}

// check validates one 200 answer against its request.
func (c *checkedHandler) check(route string, reqBody, body []byte, hit bool) error {
	n := float64(c.n)
	switch route {
	case "seeds":
		var req struct {
			K int `json:"k"`
		}
		var resp struct {
			Backend  string         `json:"backend"`
			K        int            `json:"k"`
			Seeds    []graph.NodeID `json:"seeds"`
			Spread   float64        `json:"spread"`
			Degraded bool           `json:"degraded"`
		}
		if err := json.Unmarshal(reqBody, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Backend != "rrset" || resp.Degraded || resp.K != req.K {
			return fmt.Errorf("backend %q degraded=%v k=%d", resp.Backend, resp.Degraded, resp.K)
		}
		if err := checkSeedSet(resp.Seeds, req.K, c.n); err != nil {
			return err
		}
		if !finite(resp.Spread) || resp.Spread < float64(req.K) || resp.Spread > n {
			return fmt.Errorf("spread %v outside [%d, %d]", resp.Spread, req.K, c.n)
		}
	case "spread":
		var req struct {
			Seeds    []graph.NodeID `json:"seeds"`
			EvalSims int            `json:"evalsims"`
		}
		var resp struct {
			Backend  string         `json:"backend"`
			Seeds    []graph.NodeID `json:"seeds"`
			Spread   float64        `json:"spread"`
			StdErr   *float64       `json:"stderr"`
			EvalSims int            `json:"evalsims"`
			Degraded bool           `json:"degraded"`
		}
		if err := json.Unmarshal(reqBody, &req); err != nil {
			return err
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		want := canonical(req.Seeds)
		if resp.Backend != "rrset" || resp.Degraded || resp.EvalSims != req.EvalSims || !sameSeeds(resp.Seeds, want) {
			return fmt.Errorf("backend %q degraded=%v evalsims=%d seeds=%v", resp.Backend, resp.Degraded, resp.EvalSims, resp.Seeds)
		}
		if !finite(resp.Spread) || resp.Spread < 0 || resp.Spread > n {
			return fmt.Errorf("spread %v outside [0, %d]", resp.Spread, c.n)
		}
		if req.EvalSims > 0 {
			// A Monte-Carlo estimate counts the seeds in every world.
			if resp.StdErr == nil || !finite(*resp.StdErr) || *resp.StdErr < 0 || resp.Spread < float64(len(want)) {
				return fmt.Errorf("refined spread %v (stderr %v) below |S|=%d", resp.Spread, resp.StdErr, len(want))
			}
			if c.b.tr != nil && !hit {
				c.mu.Lock()
				if len(c.cold) < maxRefineReplays {
					c.cold = append(c.cold, refineCall{want, req.EvalSims})
				}
				c.mu.Unlock()
			}
		}
	default:
		return fmt.Errorf("unexpected route %q", route)
	}
	return nil
}

// canonical returns seeds sorted and deduplicated, as the server echoes them.
func canonical(seeds []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), seeds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, v := range out {
		if i == 0 || v != out[i-1] {
			dedup = append(dedup, v)
		}
	}
	return dedup
}

// tracedOracle times every oracle call as a child span of the request's
// handler span.
type tracedOracle struct {
	serve.Oracle
	tr *tracer
}

func (o tracedOracle) Spread(ctx context.Context, seeds []graph.NodeID) (float64, error) {
	_, sp := o.tr.start(ctx, "rrset.spread_of")
	v, err := o.Oracle.Spread(ctx, seeds)
	sp.finish("")
	return v, err
}

func (o tracedOracle) Seeds(ctx context.Context, k int) ([]graph.NodeID, float64, error) {
	_, sp := o.tr.start(ctx, "rrset.seeds."+kBucket(k))
	seeds, spread, err := o.Oracle.Seeds(ctx, k)
	sp.finish("")
	return seeds, spread, err
}

// kBucket groups /v1/seeds calls by k for rrset.seeds_ms.
func kBucket(k int) string {
	switch {
	case k <= 5:
		return "k1-5"
	case k <= 10:
		return "k6-10"
	case k <= 20:
		return "k11-20"
	default:
		return "k" + strconv.Itoa(k)
	}
}

// replayRefine times the MC refinement directly on the inputs of the
// refined point queries that missed the cache: the call runs inside the
// handler, where no decorator can reach it.
func (b *bench) replayRefine(s *servingSetup) {
	s.h.mu.Lock()
	calls := append([]refineCall(nil), s.h.cold...)
	s.h.mu.Unlock()
	var ms []float64
	for i, c := range calls {
		d := b.tr.timed("diffusion.mc.refine", func() {
			diffusion.EstimateSpreadParallel(s.g, weights.IC, c.seeds, c.evalSims, b.seed+uint64(i), 0)
		})
		ms = append(ms, millis(d))
	}
	b.rep.set("diffusion.mc.refine_ms", median(ms))
}

// replayBuild times the sampling of the oracle build the snapshot came
// from, at its size: θ = 4n RR sets at one worker and at every CPU (the
// scheduler's efficiency is the ratio).
func (b *bench) replayBuild(g graph.G) error {
	theta := int64(g.N()) * 4 // imserve's default index size
	sampler := diffusion.NewRRSampler(g, weights.IC)
	base := rng.New(serverSeed).Uint64()
	sample := func(workers int) (*graphalgo.SetStore, time.Duration, error) {
		store := graphalgo.NewSetStore()
		var err error
		d := b.tr.timed("diffusion.rr.sample", func() { _, err = sampler.SampleBatch(store, theta, base, workers, nil, nil) })
		return store, d, err
	}
	_, serial, err := sample(1)
	if err != nil {
		return err
	}
	store, parallel, err := sample(runtime.NumCPU())
	if err != nil {
		return err
	}
	b.rep.set("diffusion.rr.sample_s", seconds(parallel))
	b.rep.set("diffusion.rr.sets", float64(store.Len()))
	b.rep.set("diffusion.rr.elems", float64(store.NumElems()))
	b.rep.set("sched.sample.efficiency", seconds(serial)/(float64(runtime.NumCPU())*seconds(parallel)))
	return nil
}

// invert times the inversion of store into a coverage problem.
func (b *bench) invert(g graph.G, store *graphalgo.SetStore) *graphalgo.CoverageProblem {
	var cp *graphalgo.CoverageProblem
	d := b.tr.timed("graphalgo.invert", func() { cp = graphalgo.NewCoverageProblem(g.N(), store) })
	b.rep.set("graphalgo.invert_s", seconds(d))
	b.rep.set("graphalgo.problem_mb", float64(cp.MemoryBytes())/(1<<20))
	return cp
}

// replayPersist times the snapshot layer on the snapshot the workload
// booted from: a load, a save of the loaded oracle, and the inversion the
// load path rebuilds.
func (b *bench) replayPersist(g graph.G, path string) error {
	want := persist.Header{Backend: "rrset", Fingerprint: persist.GraphFingerprint(g, weights.IC.String()),
		BuildSeed: serverSeed, Nodes: g.N()}
	var snap *persist.Snapshot
	var err error
	d := b.tr.timed("persist.load", func() { snap, err = persist.Load(path, want) })
	if err != nil {
		return err
	}
	b.rep.set("persist.load_s", seconds(d))
	again := filepath.Join(b.scratch, "oracle-again.snap")
	d = b.tr.timed("persist.save", func() { err = persist.Save(again, snap) })
	if err != nil {
		return err
	}
	b.rep.set("persist.save_s", seconds(d))
	fi, err := os.Stat(again)
	if err != nil {
		return err
	}
	b.rep.set("persist.snapshot_mb", float64(fi.Size())/(1<<20))
	b.invert(g, snap.RRIndex.Store())
	return nil
}
