package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// wantSpans lists, per workload, span names a traced run must record.
var wantSpans = map[string][]string{
	"cell-imm": {"graph.build", "core.cell", "core.select", "diffusion.worlds.query", "diffusion.rr.sample",
		"graphalgo.invert", "graphalgo.cover", "rrset.spread_of.replay", "diffusion.worlds.eval", "diffusion.mc.check"},
	"serve-cached": {"graph.build", "serve.coldstart", "serve.handler.seeds.hit", "serve.handler.seeds.miss",
		"serve.handler.spread.hit", "serve.handler.spread.miss", "rrset.seeds.k50", "diffusion.mc.refine",
		"diffusion.rr.sample", "persist.load", "persist.save", "graphalgo.invert"},
}

// wantLayers lists, per workload, per-layer metrics that must not be 0.
var wantLayers = map[string][]string{
	"cell-imm": {"host.probe_s", "graph.build_s", "diffusion.rr.sample_s", "diffusion.rr.sets", "graphalgo.invert_s",
		"graphalgo.cover_s", "rrset.spread_of_us", "diffusion.worlds.eval_s", "diffusion.worlds.reached",
		"diffusion.worlds.query_us", "runtime.gc_cycles", "runtime.heap_peak_mb"},
	"serve-cached": {"graph.build_s", "diffusion.rr.sample_s", "sched.sample.efficiency", "rrset.seeds_ms.k50",
		"persist.load_s", "persist.save_s", "persist.snapshot_mb", "graphalgo.invert_s", "serve.handler_us.spread.hit",
		"serve.handler_us.seeds.hit", "serve.handler_us.spread.miss", "serve.cache.hit_ratio", "diffusion.mc.refine_ms",
		"loadgen.achieved_ratio.busy"},
}

// TestSmoke runs every workload in smoke mode, measured and traced, and
// checks that each prints exactly its metrics with their units, counts
// no failure, and that the traced run writes its spans with parent links.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []int{0, 1} {
			name, trace := name, trace
			t.Run(fmt.Sprintf("%s/trace%d", name, trace), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "1", "--trace", fmt.Sprint(trace), "--smoke"}
				if err := run(args, &out); err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace == 1 {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
						t.Errorf("metric %s = %v", d.Name, m.Value)
					case trace == 0 && m.Value == 0:
						t.Errorf("end-to-end metric %s is 0", d.Name)
					}
				}
				if trace == 1 {
					for _, n := range wantLayers[name] {
						if res.Metrics[n].Value == 0 {
							t.Errorf("per-layer metric %s is 0", n)
						}
					}
					checkSpans(t, name)
				}
			})
		}
	}
}

// checkSpans reads the traced run's span file and checks the workload's
// spans are there and every oracle call hangs under a handler span.
func checkSpans(t *testing.T, name string) {
	t.Helper()
	body, err := os.ReadFile(filepath.Join(".bench_build", "traces", name+"-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(body, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	seen := map[string]bool{}
	for _, s := range spans {
		byID[s.ID] = s
		seen[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, n := range wantSpans[name] {
		if !seen[n] {
			t.Errorf("no %s span", n)
		}
	}
	for _, s := range spans {
		if s.Name != "rrset.spread_of" && !strings.HasPrefix(s.Name, "rrset.seeds.") {
			continue // not an oracle call through the decorator
		}
		p, ok := byID[s.Parent]
		if !ok || !strings.HasPrefix(p.Name, "serve.handler.") || p.Trace != s.Trace {
			t.Errorf("oracle span %s (parent %d) is not a child of a handler span", s.Name, s.Parent)
		}
	}
}

// TestBenchmarkFile checks that BENCHMARK.json declares exactly the
// workloads and metrics this program runs and prints.
func TestBenchmarkFile(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	same := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d declared, %d printed", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.Name || declared[i].Unit != d.Unit {
				t.Errorf("%s %d: declared %s [%s], printed %s [%s]", kind, i, declared[i].Name, declared[i].Unit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestMonotone(t *testing.T) {
	got := monotone([]float64{1, 3, 2, 4, 1})
	want := []float64{1, 2.5, 2.5, 2.5, 2.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("monotone = %v, want %v", got, want)
		}
	}
}

func TestKneeRate(t *testing.T) {
	// p99 10ms at 100 req/s and 40ms at 400 req/s: log-linear, so the
	// 20ms limit is crossed at 200 req/s.
	r, crossed, err := kneeRate(50, 5, []float64{100, 400}, []float64{10, 40}, 20)
	if err != nil || !crossed || math.Abs(r-200) > 1e-9 {
		t.Fatalf("kneeRate = %v, %v, %v; want 200, true", r, crossed, err)
	}
	if r, crossed, _ := kneeRate(50, 5, []float64{100, 400}, []float64{10, 15}, 20); crossed || r != 400 {
		t.Fatalf("no crossing: got %v, %v; want the top rate 400, false", r, crossed)
	}
	if _, _, err := kneeRate(50, 25, []float64{100}, []float64{30}, 20); err == nil {
		t.Fatal("a light rate past the limit must be an error")
	}
}
