package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a measured run (--trace 0) prints. Every
// workload reports every one of them; README.md gives, per workload,
// which operation each measures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"select_s", "s"},
	{"eval_s", "s"},
	{"spread", "nodes"},
	{"peak_mem_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"p50_ms.light", "ms"},
	{"p50_ms.busy", "ms"},
}

// perLayer lists the metrics a traced run (--trace 1) prints. A layer a
// workload does not reach reports 0.
var perLayer = []metricDef{
	{"host.probe_s", "s"},
	{"graph.build_s", "s"},
	{"diffusion.rr.sample_s", "s"},
	{"diffusion.rr.sets", "count"},
	{"diffusion.rr.elems", "count"},
	{"sched.sample.efficiency", "ratio"},
	{"graphalgo.invert_s", "s"},
	{"graphalgo.problem_mb", "MB"},
	{"graphalgo.cover_s", "s"},
	{"rrset.seeds_ms.k1-5", "ms"},
	{"rrset.seeds_ms.k6-10", "ms"},
	{"rrset.seeds_ms.k11-20", "ms"},
	{"rrset.seeds_ms.k50", "ms"},
	{"rrset.spread_of_us", "us"},
	{"diffusion.worlds.eval_s", "s"},
	{"diffusion.worlds.reached", "count"},
	{"diffusion.worlds.query_us", "us"},
	{"diffusion.mc.refine_ms", "ms"},
	{"persist.save_s", "s"},
	{"persist.load_s", "s"},
	{"persist.snapshot_mb", "MB"},
	{"serve.handler_us.spread.hit", "us"},
	{"serve.handler_us.spread.miss", "us"},
	{"serve.handler_us.seeds.hit", "us"},
	{"serve.handler_us.seeds.miss", "us"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"loadgen.p99_ms.light", "ms"},
	{"loadgen.p99_ms.busy", "ms"},
	{"loadgen.slo_qps", "1/s"},
	{"loadgen.achieved_ratio.light", "ratio"},
	{"loadgen.achieved_ratio.busy", "ratio"},
	{"loadgen.overrun_ms.light", "ms"},
	{"loadgen.overrun_ms.busy", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.heap_peak_mb", "MB"},
}

// report accumulates one run's operation counts, output problems and
// metric values. Load workers record into it concurrently.
type report struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	problems  []string
	values    map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

// ops records n attempted operations of which bad failed.
func (r *report) ops(n, bad int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
	r.failed += bad
}

// invalid records an output that failed its check. The operation itself
// was already counted by ops, so only the failure is added here.
func (r *report) invalid(format string, args ...interface{}) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// set records a metric value.
func (r *report) set(name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.values[name] = v
}

// has reports whether a metric value was recorded.
func (r *report) has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.values[name]
	return ok
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// write prints the human summary and then, as the last line, the JSON
// result carrying exactly the metrics in defs. Metrics outside defs are
// printed in the summary only. It returns whether the run was correct.
func (r *report) write(w io.Writer, defs []metricDef) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	line := resultLine{
		Correct:   len(r.problems) == 0 && r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return false, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "perfbench: %-32s %.6g\n", n, r.values[n])
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "perfbench: invalid output: %s\n", p)
	}
	body, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", body)
	return line.Correct, err
}
