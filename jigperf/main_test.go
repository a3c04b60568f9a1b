package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestWorkloadsSmall runs every workload, untraced and traced, over
// laptop-sized inputs. Each must pass its output checks (for the traced
// runs these include the rebuilt serial pipeline reproducing the
// untraced one's outcome) and emit exactly BENCHMARK.json's metrics, each
// with its unit.
func TestWorkloadsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	// Layers each workload's traced run must see working.
	busy := map[string][]string{
		"building_batch": {"tracefile.read_ns_per_record", "unify.self_ns_per_jframe", "llc.ns_per_jframe", "transport.ns_per_exchange"},
		"building_live":  {"tracefile.tail_scans", "tracefile.write_ns_per_record", "serve.self_ns_per_event", "serve.windows_closed", "analysis.finalize_window_ms_p50"},
		"campus_hier":    {"hmerge.write_ns_per_jframe", "hmerge.merge_next_ns_per_jframe", "core.hier_global_wall_s", "analysis.roam.ns_per_event"},
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			name := w.Name + map[bool]string{false: "/untraced", true: "/traced"}[traced]
			t.Run(name, func(t *testing.T) {
				r := &run{workload: w.Name, seed: 3, seconds: time.Second, traced: traced, work: t.TempDir(), small: true}
				res, err := r.execute()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("checks: correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, r.checks.notes)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					for _, name := range busy[w.Name] {
						if !(res.Metrics[name].Value > 0) {
							t.Errorf("layer metric %s = %v, want > 0", name, res.Metrics[name].Value)
						}
					}
				}
			})
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
