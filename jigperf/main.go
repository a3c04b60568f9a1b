// Command jigperf is the repository's benchmark of record. It generates a
// workload's inputs from a seed, outside the timed region, drives the
// pipeline through its public package functions, checks every run's
// outputs, and prints every metric by name with its unit. The last line
// of standard output is the result:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced
// over repeated runs and reported as medians. With --trace 1 a separate
// traced run reports the per-layer metrics. Run it from the repository
// root:
//
//	bash jigperf/run.sh --workload building_batch --seed 1 --seconds 25 --trace 0
//
// Workloads (see BENCHMARK.json for why each was chosen):
//
//	building_batch  offline merge of three buildings, serial pipeline, no passes
//	building_live   jigd's path: paced replay into rotating segments, tailed
//	campus_hier     per-building .jfs streams, then the parallel global merge
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The metric sets, with units. BENCHMARK.json names the same metrics.
var endToEndUnits = map[string]string{
	"jframes_per_s":     "1/s",
	"setup_s":           "s",
	"cpu_us_per_jframe": "us",
	"heap_live_peak_mb": "MB",
	"allocs_per_jframe": "count",
	"report_lag_p50_ms": "ms",
	"report_lag_p95_ms": "ms",
}

var analysisPasses = []string{"summary", "timeseries", "interference", "protection", "diagnose", "tcploss", "roam"}

var perLayerUnits = func() map[string]string {
	m := map[string]string{
		"tracefile.read_ns_per_record":    "ns",
		"tracefile.read_mb":               "MB",
		"tracefile.write_ns_per_record":   "ns",
		"tracefile.tail_scan_ms_p50":      "ms",
		"tracefile.tail_scans":            "count",
		"tracefile.seal_wait_ms_p95":      "ms",
		"scenario.gen_late_p95_ms":        "ms",
		"timesync.collect_window_ms":      "ms",
		"timesync.bootstrap_ms":           "ms",
		"timesync.synced_share":           "ratio",
		"dot80211.decode_ns_per_record":   "ns",
		"unify.self_ns_per_jframe":        "ns",
		"unify.records_per_jframe":        "ratio",
		"unify.error_share":               "ratio",
		"unify.resyncs_per_kjframe":       "count",
		"llc.ns_per_jframe":               "ns",
		"llc.exchanges_per_kjframe":       "count",
		"llc.inferred_share":              "ratio",
		"transport.ns_per_exchange":       "ns",
		"transport.flows":                 "count",
		"core.hier_global_wall_s":         "s",
		"core.hier_global_cpu_s":          "s",
		"hmerge.unify_dir_s":              "s",
		"hmerge.write_ns_per_jframe":      "ns",
		"hmerge.jfs_bytes_per_jframe":     "B",
		"hmerge.merge_next_ns_per_jframe": "ns",
		"analysis.finalize_ms":            "ms",
		"analysis.finalize_window_ms_p50": "ms",
		"serve.self_ns_per_event":         "ns",
		"serve.watermark_lag_ms_p95":      "ms",
		"serve.windows_closed":            "count",
		"trace.overhead_pct":              "%",
	}
	for _, p := range analysisPasses {
		m["analysis."+p+".ns_per_event"] = "ns"
	}
	return m
}()

// metricSet fills a metric map. Every metric of the set is present; one a
// workload does not exercise (the layer does no work there) reads 0.
type metricSet map[string]metric

func newMetricSet(units map[string]string) metricSet {
	m := metricSet{}
	for name, unit := range units {
		m[name] = metric{Unit: unit}
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	mt, ok := m[name]
	if !ok {
		panic("jigperf: unknown metric " + name)
	}
	mt.Value = v
	m[name] = mt
}

// checks tallies the output checks of a run.
type checks struct {
	attempted, failed int
	notes             []string
}

// expect records one check.
func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// expectCount records want checks of which got passed.
func (c *checks) expectCount(want, got int, format string, args ...any) {
	c.attempted += want
	if got != want {
		c.failed += max(want-got, 1)
		c.notes = append(c.notes, fmt.Sprintf(format, args...)+fmt.Sprintf(": %d of %d", got, want))
	}
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	work     string // scratch directory for generated inputs
	small    bool   // laptop-sized inputs, for the benchmark's own tests

	heap   *heapSampler
	checks checks
	prov   map[string]any
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) (metricSet, error){
	"building_batch": runBatch,
	"building_live":  runLive,
	"campus_hier":    runCampus,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: building_batch, building_live or campus_hier")
		seed     = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Int("seconds", 25, "how long to measure, in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "jigperf: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, work: filepath.Join(".bench_build", "work"),
	}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintf(os.Stderr, "jigperf: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	prov, err := json.Marshal(map[string]any{"provenance": r.prov})
	if err != nil {
		fmt.Fprintf(os.Stderr, "jigperf: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "jigperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(prov))
	fmt.Println(string(out))
}

// execute runs the workload in a fresh scratch directory and assembles
// the result.
func (r *run) execute() (*result, error) {
	dir := filepath.Join(r.work, fmt.Sprintf("%s-%d-%d", r.workload, r.seed, os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) // scratch inputs; a failure to remove them does not change the result
	r.work = dir
	r.prov = r.provenance()
	r.heap = startHeapSampler()
	defer r.heap.Stop()

	metrics, err := workloads[r.workload](r)
	if err != nil {
		return nil, err
	}
	for _, n := range r.checks.notes {
		fmt.Fprintf(os.Stderr, "jigperf: check failed: %s\n", n)
	}
	r.prov["checks_failed"] = r.checks.notes
	return &result{
		Correct:   r.checks.failed == 0,
		Attempted: r.checks.attempted,
		Failed:    r.checks.failed,
		Metrics:   map[string]metric(metrics),
	}, nil
}

// provenance stamps the host and build a result was measured on.
func (r *run) provenance() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	env := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v
		}
		return "default"
	}
	return map[string]any{
		"workload":      r.workload,
		"seed":          r.seed,
		"trace":         r.traced,
		"seconds":       r.seconds.Seconds(),
		"small":         r.small,
		"commit":        commit,
		"source_sha256": sourceDigest("."),
		"go":            runtime.Version(),
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"gogc":          env("GOGC"),
		"gomemlimit":    env("GOMEMLIMIT"),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under root, so a
// result identifies the code it measured even where no VCS metadata is
// available.
func sourceDigest(root string) string {
	var paths []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(p))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// measureFor repeats one repetition until the run's measuring time is
// used, at least min times, and returns every repetition.
func (r *run) measureFor(min int, one func() (rep, error)) ([]rep, error) {
	var reps []rep
	start := time.Now()
	for len(reps) < min || time.Since(start) < r.seconds {
		rp, err := one()
		if err != nil {
			return nil, err
		}
		reps = append(reps, rp)
	}
	walls := make([]float64, len(reps))
	for i, rp := range reps {
		walls[i] = rp.wall.Seconds()
	}
	r.prov["rep_wall_s"] = walls
	r.prov["reps"] = len(reps)
	return reps, nil
}

// endToEnd reduces untraced repetitions to the end-to-end metrics:
// medians over repetitions, and report-lag percentiles over every report
// of every repetition.
func (r *run) endToEnd(reps []rep) metricSet {
	m := newMetricSet(endToEndUnits)
	jf := func(rp rep) float64 { return float64(rp.jframes) }
	m.set("jframes_per_s", medianOf(reps, func(rp rep) float64 { return jf(rp) / rp.wall.Seconds() }))
	m.set("setup_s", medianOf(reps, func(rp rep) float64 { return rp.setup.Seconds() }))
	m.set("cpu_us_per_jframe", medianOf(reps, func(rp rep) float64 { return float64(rp.cpu.Microseconds()) / jf(rp) }))
	m.set("heap_live_peak_mb", medianOf(reps, func(rp rep) float64 { return float64(rp.heapPeak) / 1e6 }))
	m.set("allocs_per_jframe", medianOf(reps, func(rp rep) float64 { return float64(rp.allocs) / jf(rp) }))
	var lags []float64
	for _, rp := range reps {
		lags = append(lags, rp.lagsMS...)
	}
	m.set("report_lag_p50_ms", quantile(lags, 0.50))
	m.set("report_lag_p95_ms", quantile(lags, 0.95))
	r.prov["report_lag_samples"] = len(lags)
	return m
}

var errNoJFrames = errors.New("the run produced no jframes")
