// Command perfbench is the repository benchmark: it runs one named
// workload through the public entry points (exp.Run, or serve.NewServer +
// AddAssembly + the HTTP handler), checks every output, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run records spans around the calls into each layer,
// times per-operation probes of the layers' public functions, and reports
// the per-layer metrics plus the ledger that reconciles them. Run it from
// the repository root:
//
//	bash perfbench/run.sh --workload mjpeg-sti7200 --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"embera/internal/cluster"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	// e2e holds the end-to-end metrics (untraced runs); layers the
	// per-layer metrics (traced runs).
	e2e    map[string]metric
	layers map[string]metric
	// extra holds metrics printed in the human report only.
	extra     map[string]metric
	attempted int
	failed    int
	// problems lists every failed check, one line each.
	problems []string
	spans    []span
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg config) (*outcome, error){
	"mjpeg-sti7200": runBatch,
	"burst-smp":     runBatch,
	"mjpeg-cluster": runBatch,
	"serve-sse":     runServe,
}

// e2eUnits and layerUnits fix the reported metric names and units; every
// run reports every name of its set.
var e2eUnits = map[string]string{
	"units_per_s":          "1/s",
	"host_cpu_us_per_unit": "us",
	"peak_rss_mb":          "MB",
	"setup_s":              "s",
}

var layerUnits = map[string]string{
	"exp.build_ms":                    "ms",
	"exp.run_ms":                      "ms",
	"exp.allocs_per_unit":             "count",
	"exp.alloc_bytes_per_unit":        "B",
	"exp.generations_per_s":           "1/s",
	"core.send_ops":                   "count",
	"core.recv_ops":                   "count",
	"core.send_bytes":                 "B",
	"core.send_wait_us_per_op":        "us",
	"core.recv_wait_us_per_op":        "us",
	"core.sample_all_ns":              "ns",
	"sim.handoff_ns":                  "ns",
	"sim.run_ns_per_op":               "ns",
	"native.mailbox_send_ns":          "ns",
	"mjpeg.decode_ns_per_frame":       "ns",
	"monitor.samples":                 "count",
	"monitor.windows":                 "count",
	"monitor.ring_dropped":            "count",
	"monitor.sample_tick_ns":          "ns",
	"monitor.aggregate_ns_per_window": "ns",
	"monitor.alloc_bytes_per_window":  "B",
	"cluster.setup_ms":                "ms",
	"cluster.worker_cpu_s":            "s",
	"cluster.lost_frames":             "count",
	"serve.flush_to_broker_us_p50":    "us",
	"serve.flush_to_broker_us_p99":    "us",
	"serve.sse_hop_us_p50":            "us",
	"serve.sse_hop_us_p99":            "us",
	"serve.publish_ns_per_sub_1":      "ns",
	"serve.publish_ns_per_sub_8":      "ns",
	"serve.sse_bytes_per_window":      "B",
	"serve.metrics_scrape_ms_p50":     "ms",
	"serve.control_post_ms_p50":       "ms",
	"serve.broker_dropped":            "count",
	"ctl.observe_ns_per_window":       "ns",
	"ctl.firings":                     "count",
	"ctl.firings_dropped":             "count",
	"bench.generator_late_ms_p99":     "ms",
	"bench.trace_overhead_pct":        "%",
	"bench.ledger_residual_pct":       "%",
}

func init() {
	for _, k := range wireKinds {
		layerUnits["wire.encode_ns."+k] = "ns"
		layerUnits["wire.decode_ns."+k] = "ns"
		layerUnits["wire.allocs_per_frame."+k] = "count"
	}
}

func main() {
	// Cluster runs re-exec this binary as shard workers.
	cluster.MaybeWorkerMain()
	os.Exit(run(os.Args[1:]))
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}, extra: map[string]metric{}}
}

func run(args []string) int {
	var cfg config
	var traceFlag, index int
	var size string
	var child bool
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed (burst spec seed, mjpeg frame offset, writer schedule)")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&size, "size", "full", "input size: full, or tiny for a smoke pass")
	fs.BoolVar(&child, "child", false, "internal: run one session (--index) and print its record")
	fs.IntVar(&index, "index", 0, "internal: the session's index")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 || cfg.seed < 0 || (size != "full" && size != "tiny") {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --seconds must be positive, --seed non-negative, --size full or tiny")
		return 2
	}
	cfg.trace, cfg.tiny = traceFlag == 1, size == "tiny"
	if err := useLocalTemp(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if child {
		return childMain(cfg, index)
	}
	out, err := runner(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, out.spans); err != nil {
			out.fail("writing spans: %v", err)
		}
	}
	if !printReport(os.Stdout, cfg, out) {
		return 1
	}
	return 0
}

// useLocalTemp points the process's temporary directory (cluster worker
// sockets and configs) into the working directory. The path stays
// relative so unix socket paths stay short; cluster workers inherit the
// working directory.
func useLocalTemp() error {
	dir := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.Setenv("TMPDIR", dir)
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printReport prints every metric by name and unit, then the JSON line,
// and reports whether the run was correct: every check passed and every
// metric was measured.
func printReport(w *os.File, cfg config, out *outcome) bool {
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	for _, p := range out.problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
	ratio := float64(out.failed) / float64(max(out.attempted, 1))
	out.extra["ops_failed_ratio"] = metric{ratio, "ratio"}
	out.extra["seed"] = metric{float64(cfg.seed), "count"}
	want, got := e2eUnits, out.e2e
	if cfg.trace {
		want, got = layerUnits, out.layers
	}
	for _, set := range []map[string]metric{got, out.extra} {
		for _, name := range sortedKeys(set) {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", name, set[name].Value, set[name].Unit)
		}
	}
	if cfg.trace {
		self := selfTimes(out.spans)
		for _, name := range sortedKeys(self) {
			fmt.Fprintf(w, "  self %-31s %16.3f ms\n", name, float64(self[name])/1e6)
		}
	}
	res := result{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metric{}}
	for _, name := range sortedKeys(want) {
		m, ok := got[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// A failed check stops the run before its metrics exist.
			if out.failed == 0 {
				fmt.Fprintf(w, "FAILED CHECK: metric %s missing or not finite\n", name)
			}
			res.Correct = false
			m = metric{0, want[name]}
		}
		res.Metrics[name] = metric{m.Value, want[name]}
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(w, string(b))
	return res.Correct
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// deadline runs fn and waits at most d for it. On timeout it calls
// cancel (which should make fn return) and waits a grace period more; a
// call still running after that is abandoned and reported as hung.
func deadline(d time.Duration, cancel func(), fn func() error) error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
	}
	if cancel != nil {
		cancel()
	}
	select {
	case <-done:
		return fmt.Errorf("exceeded its %v deadline", d)
	case <-time.After(10 * time.Second):
		return fmt.Errorf("exceeded its %v deadline and did not stop when interrupted", d)
	}
}
