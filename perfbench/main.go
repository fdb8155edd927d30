// Command perfbench is the repository benchmark: it runs one workload of
// the goinfmax system in process, checks every output it gets, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload cell-imm --seed 1 --seconds 40 --trace 0
//
// Workloads (README.md says why each exists):
//
//	cell-imm      one paper-protocol IMM cell on the youtube stand-in
//	serve-cached  imserve traffic booted from a snapshot, cache on
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// bench is one benchmark run.
type bench struct {
	seed    uint64
	seconds float64
	tr      *tracer // nil unless --trace 1
	rep     *report
	out     io.Writer
	// smoke shrinks the graph and the latency phases so that a test can
	// run every workload in seconds; its figures mean nothing.
	smoke bool
	// scratch is a run-private directory inside the checkout for files
	// the workload writes (oracle snapshots); it is removed at exit.
	scratch string
}

// share returns the given fraction of the run's measuring time.
func (b *bench) share(frac float64) time.Duration {
	return time.Duration(frac * b.seconds * float64(time.Second))
}

var workloads = map[string]func(*bench) error{
	"cell-imm":     runCell,
	"serve-cached": runServeCached,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: cell-imm or serve-cached")
	seed := fs.Uint64("seed", 1, "input seed: the request streams derive from it")
	secs := fs.Float64("seconds", 40, "measuring time of the run")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	smoke := fs.Bool("smoke", false, "tiny graph and phases: checks that every metric is emitted, measures nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *secs <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	b := &bench{seed: *seed, seconds: *secs, rep: newReport(), out: out, scratch: scratch, smoke: *smoke}
	defs := endToEnd
	var heap *heapSampler
	if *trace == 1 {
		b.tr = newTracer()
		defs = perLayer
		heap = startHeapSampler()
	}
	probe := hostProbe()
	b.rep.set("host.probe_s", probe)
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d host.probe_s=%.4f\n",
		*workload, *seed, *secs, *trace, runtime.NumCPU(), probe)

	if err := fn(b); err != nil {
		return fmt.Errorf("%s: %w", *workload, err)
	}
	b.rep.set("peak_rss_mb", peakRSSMB())
	if heap != nil {
		if err := heap.stop(b.rep); err != nil {
			return err
		}
		b.spanMetrics()
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", *workload, *seed))
		if err := b.tr.write(path); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "perfbench: %d spans written to %s\n", len(b.tr.snapshot()), path)
	}
	correct, err := b.rep.write(out, defs)
	if err != nil {
		return err
	}
	if !correct {
		return errors.New("the run produced invalid or failed outputs")
	}
	return nil
}

// spanMetrics derives the per-layer metrics measured by spans, and sets
// to 0 every per-layer metric of a layer the workload did not reach.
func (b *bench) spanMetrics() {
	self := selfTimes(b.tr.snapshot())
	perCall := map[string]struct {
		span string
		unit time.Duration
	}{
		"rrset.seeds_ms.k1-5":          {"rrset.seeds.k1-5", time.Millisecond},
		"rrset.seeds_ms.k6-10":         {"rrset.seeds.k6-10", time.Millisecond},
		"rrset.seeds_ms.k11-20":        {"rrset.seeds.k11-20", time.Millisecond},
		"rrset.seeds_ms.k50":           {"rrset.seeds.k50", time.Millisecond},
		"rrset.spread_of_us":           {"rrset.spread_of", time.Microsecond},
		"serve.handler_us.spread.hit":  {"serve.handler.spread.hit", time.Microsecond},
		"serve.handler_us.spread.miss": {"serve.handler.spread.miss", time.Microsecond},
		"serve.handler_us.seeds.hit":   {"serve.handler.seeds.hit", time.Microsecond},
		"serve.handler_us.seeds.miss":  {"serve.handler.seeds.miss", time.Microsecond},
		"diffusion.worlds.query_us":    {"diffusion.worlds.query", time.Microsecond},
	}
	for metric, src := range perCall {
		if st, ok := self[src.span]; ok {
			b.rep.set(metric, float64(st.Mean)/float64(src.unit))
		}
	}
	for _, d := range perLayer {
		if !b.rep.has(d.Name) {
			b.rep.set(d.Name, 0)
		}
	}
}
