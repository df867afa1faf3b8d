// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints every metric by name and unit, ending with
// one JSON result line:
//
//	go run . --workload live-replay --seed 42 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of untraced runs;
// with --trace 1 it records spans around calls into each layer's public
// functions and reports the per-layer metrics. README.md lists the
// workloads, why each exists, and which layer metric should move which
// end-to-end metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not read as a regression.
const setupReps = 5

// op is the outcome of one timed operation.
type op struct {
	wall   time.Duration
	quotes int       // quotes the operation consumed
	evals  int       // (pair × parameter set × day) strategy evaluations
	lagsMs []float64 // bar lag samples
}

// workload is one benchmark input set and the operation timed on it.
type workload interface {
	// setup generates the inputs for seed; it is timed and repeated.
	setup(seed int64) error
	// reference computes the expected outputs once, outside any timed
	// region.
	reference(ctx context.Context) error
	// run performs one timed operation and checks its output; tr is nil
	// in untraced runs.
	run(ctx context.Context, tr *tracer) (op, error)
	// layers runs the per-layer probes of a traced run into m.
	layers(ctx context.Context, tr *tracer, m map[string]float64) error
}

// workloads maps names to constructors; dir is a scratch directory the
// workload may write into.
var workloads = map[string]func(dir string) workload{
	"live-replay":  func(string) workload { return newLive(false) },
	"live-paced":   func(string) workload { return newLive(true) },
	"sweep-robust": func(string) workload { return &sweepRobust{} },
	"farm-pearson": func(dir string) workload { return &farmPearson{dir: dir} },
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits and layerUnits name every reported metric with its
// unit; BENCHMARK.json declares the same names.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"quotes_per_s":   "1/s",
	"evals_per_s":    "1/s",
	"bar_lag_p50_ms": "ms",
}

var layerUnits = map[string]string{
	"bar_lag_p99_ms":               "ms",
	"engine.msgs":                  "count",
	"engine.ns_per_msg":            "ns",
	"clean.ns_per_quote":           "ns",
	"clean.reject_frac":            "ratio",
	"series.bar_ns_per_quote":      "ns",
	"series.prep_ms_per_day":       "ms",
	"market.generate_ms_per_day":   "ms",
	"corr.push_us":                 "us",
	"corr.series_ms_per_day":       "ms",
	"corr.windows":                 "count",
	"corr.mean_iters":              "count",
	"corr.warm_hit_frac":           "ratio",
	"corr.mean_active_lanes":       "count",
	"strategy.ns_per_eval":         "ns",
	"strategy.step_ns":             "ns",
	"strategy.trades":              "count",
	"risk.ns_per_basket":           "ns",
	"risk.baskets":                 "count",
	"sched.efficiency_2w":          "ratio",
	"sweep.journal_append_us":      "us",
	"sweep.journal_bytes_per_unit": "B",
	"farm.group_compute_ms":        "ms",
	"farm.overhead_frac":           "ratio",
	"farm.result_ack_ms_p50":       "ms",
	"feed.result_encode_us":        "us",
	"feed.result_decode_us":        "us",
	"feed.result_bytes":            "B",
	"farm.leases_granted":          "count",
	"farm.lease_reclaims":          "count",
	"farm.results_duplicate":       "count",
	"proc.cpu_util":                "ratio",
	"proc.peak_rss_mb":             "MB",
	"pacer.late_p99_ms":            "ms",
	"trace.overhead_frac":          "ratio",
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Float64("seconds", 15, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	dir := flag.String("workdir", filepath.Join(".bench_build", "perfbench"), "scratch directory for journals and trace files")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	meta := hostMeta()
	meta["workload"] = *name
	meta["seed"] = *seed
	meta["trace"] = *trace
	mj, _ := json.Marshal(meta) // a map of strings and numbers always encodes
	fmt.Printf("meta %s\n", mj)

	ctx := context.Background()
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(ctx, mk(*dir), *name, *seed, *dir, meta)
	} else {
		res, err = runUntraced(ctx, mk(*dir), *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// timedSetup runs w's set-up setupReps times and returns the median.
// Each repetition starts from a collected heap, so the garbage of the
// one before does not decide when its collections fall.
func timedSetup(w workload, seed int64) (float64, error) {
	var secs []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// runUntraced measures the end-to-end metrics: set-up, reference, one
// untimed warm-up operation (the first operation of a process grows the
// heap and runs with a cold GC pacer, and its bar-lag tail is several
// times the later ones'), then operations until d has passed. Every
// operation's output is checked; a failed one counts in Failed and
// contributes no samples. Rates and the bar-lag median are taken per
// operation and reported as their median over the run's operations, so
// one operation disturbed by the host does not move a run's figure.
func runUntraced(ctx context.Context, w workload, seed int64, d time.Duration) (result, error) {
	setupS, err := timedSetup(w, seed)
	if err != nil {
		return result{}, err
	}
	if err := w.reference(ctx); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	res := result{Metrics: map[string]metric{}}
	attempt := func() (op, bool) {
		res.Attempted++
		o, err := w.run(ctx, nil)
		if err != nil {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
			return o, false
		}
		return o, true
	}
	attempt() // warm-up: checked, not timed
	var quoteRates, evalRates, lagP50s []float64
	lagSamples := 0
	steal0 := stealSeconds()
	start := time.Now()
	for time.Since(start) < d || len(evalRates) == 0 {
		o, ok := attempt()
		if !ok {
			if res.Failed > res.Attempted/2 {
				break
			}
			continue
		}
		quoteRates = append(quoteRates, float64(o.quotes)/o.wall.Seconds())
		evalRates = append(evalRates, float64(o.evals)/o.wall.Seconds())
		sort.Float64s(o.lagsMs)
		lagP50s = append(lagP50s, quantile(o.lagsMs, 0.50))
		lagSamples += len(o.lagsMs)
	}
	stealFrac := (stealSeconds() - steal0) / time.Since(start).Seconds() / float64(runtime.NumCPU())
	res.Correct = res.Failed == 0
	if len(evalRates) == 0 {
		return res, nil
	}
	set := func(name string, v float64) { res.Metrics[name] = metric{v, endToEndUnits[name]} }
	set("setup_s", setupS)
	set("quotes_per_s", median(quoteRates))
	set("evals_per_s", median(evalRates))
	set("bar_lag_p50_ms", median(lagP50s))
	fmt.Printf("run ops=%d lag_samples=%d error_rate=%.4g host_steal_frac=%.4f\n",
		len(evalRates), lagSamples, float64(res.Failed)/float64(res.Attempted), stealFrac)
	return res, nil
}

// runTraced measures the per-layer metrics. After an untimed warm-up,
// the workload's operation runs once untraced and once traced (their
// wall-time ratio is trace.overhead_frac), then the layer probes run
// under the tracer, and the spans are written to dir.
func runTraced(ctx context.Context, w workload, name string, seed int64, dir string, meta map[string]any) (result, error) {
	tr := newTracer()
	if _, err := timedSetup(w, seed); err != nil {
		return result{}, err
	}
	if err := w.reference(ctx); err != nil {
		return result{}, fmt.Errorf("reference: %w", err)
	}
	res := result{Attempted: 3, Metrics: map[string]metric{}}
	m := map[string]float64{}
	for k := range layerUnits {
		m[k] = 0
	}
	// Return set-up and reference garbage to the OS, so the sampled
	// peak is the operations' own. The warm-up regrows the heap, so the
	// untraced and traced operations compared below both start warm.
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	if _, err := w.run(ctx, nil); err != nil {
		rss.stopAndPeak()
		return result{}, fmt.Errorf("warm-up operation: %w", err)
	}
	cpu0 := cpuTime()
	plain, err := w.run(ctx, nil)
	m["proc.peak_rss_mb"] = rss.stopAndPeak()
	if err != nil {
		return result{}, fmt.Errorf("untraced operation: %w", err)
	}
	m["proc.cpu_util"] = (cpuTime() - cpu0).Seconds() / plain.wall.Seconds() / float64(runtime.GOMAXPROCS(0))
	sort.Float64s(plain.lagsMs)
	m["bar_lag_p99_ms"] = quantile(plain.lagsMs, 0.99)
	traced, err := w.run(ctx, tr)
	if err != nil {
		return result{}, fmt.Errorf("traced operation: %w", err)
	}
	m["trace.overhead_frac"] = traced.wall.Seconds()/plain.wall.Seconds() - 1
	if err := w.layers(ctx, tr, m); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := tr.write(path, meta); err != nil {
		return result{}, err
	}
	fmt.Printf("trace %s spans=%d\n", path, tr.len())
	res.Correct = true
	for k, v := range m {
		if _, ok := layerUnits[k]; !ok {
			return result{}, errors.New("unknown layer metric " + k)
		}
		res.Metrics[k] = metric{v, layerUnits[k]}
	}
	return res, nil
}

// printResult prints one line per metric, then the JSON result line.
func printResult(res result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-30s %16.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	fmt.Printf("checks attempted=%d failed=%d\n", res.Attempted, res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
