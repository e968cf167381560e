// Command perfbench is qplacer's whole-job benchmark. One job is what
// `qplacer -bench all` and every qplacerd job do: Engine.Plan under
// ValidationAnnotate, then Engine.EvaluateAll over the Table I benchmarks at
// 50 mappings. Each run measures one workload for a fixed time, checks every
// job's outputs, prints a human-readable report and, as its last line, one
// JSON object with the end-to-end metrics (--trace 0) or the per-layer
// metrics of a traced run (--trace 1). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"job_s_p50", "s"},
	{"jobs_per_s", "1/s"},
	{"cpu_s_per_job", "s"},
	{"alloc_mb_per_job", "MB"},
	{"rss_peak_mb", "MB"},
	{"amer_mm2", "mm2"},
	{"ph_free_pct", "%"},
	{"fidelity_mean", "ratio"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"stage.wall_ms", "ms"},
	{"stage.alloc_mb", "MB"},
	{"stage.collision_pairs", "count"},
	{"place.wall_ms", "ms"},
	{"place.cpu_ms", "ms"},
	{"place.alloc_mb", "MB"},
	{"place.iterations", "count"},
	{"legal.wall_ms", "ms"},
	{"legal.cpu_ms", "ms"},
	{"legal.alloc_mb", "MB"},
	{"legal.displacement_mm", "mm"},
	{"detail.wall_ms", "ms"},
	{"detail.moved", "count"},
	{"metrics.wall_ms", "ms"},
	{"validate.wall_ms", "ms"},
	{"validate.warnings", "count"},
	{"evaluate.wall_ms", "ms"},
	{"evaluate.mappings", "count"},
	{"job.self_ms", "ms"},
	{"server.submit_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.run_ms", "ms"},
	{"server.result_ms", "ms"},
	{"server.result_kb", "kB"},
	{"server.dedup_ratio", "ratio"},
	{"server.rejected", "count"},
	{"engine.stage_hit_ratio", "ratio"},
	{"journal.fsync_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// report is one run's outcome: metric values, the sample count behind
// each timing, and free-form lines for the human-readable part.
type report struct {
	correct           bool
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	notes             []string
}

func newReport() *report {
	return &report{correct: true, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// measured is the raw material of an untraced run's end-to-end metrics.
type measured struct {
	setup            []float64 // seconds per set-up
	walls            []float64 // seconds per measured job
	errs             []error   // per measured job; nil when it passed every check
	rejected         int       // jobs refused with 429
	wall, cpu        time.Duration
	alloc            uint64
	rss              []float64 // MB, peak resident set size during each measured job
	maxRSSMB         float64   // process peak RSS when the measured section ended
	amer, ph, fidels []float64 // over the workload's fixed quality list, failed checks included
}

func (m *measured) report() *report {
	r := newReport()
	r.attempted = len(m.errs)
	for _, err := range m.errs {
		if err != nil {
			r.failed++
			if r.failed <= 3 {
				r.note("job failed: %v", err)
			}
		}
	}
	// A job that fails an output check is a failed operation: it counts in
	// failed and ok_ratio and is never dropped from them. correct covers the
	// run as a whole: some job passed, and the quality means are sound.
	r.correct = r.failed < r.attempted
	if f := mean(m.fidels); !(f > 0 && f <= 1) {
		r.correct = false
		r.note("fidelity_mean %v outside (0, 1]", f)
	}
	ok := r.attempted - r.failed
	n := float64(max(r.attempted, 1))
	r.set("setup_s", median(m.setup), len(m.setup))
	r.set("job_s_p50", median(m.walls), len(m.walls))
	r.set("jobs_per_s", float64(ok)/m.wall.Seconds(), ok)
	r.set("cpu_s_per_job", m.cpu.Seconds()/n, r.attempted)
	r.set("alloc_mb_per_job", float64(m.alloc)/1e6/n, r.attempted)
	r.set("rss_peak_mb", median(m.rss), len(m.rss))
	r.set("amer_mm2", mean(m.amer), len(m.amer))
	r.set("ph_free_pct", 100-mean(m.ph), len(m.ph))
	r.set("fidelity_mean", mean(m.fidels), len(m.fidels))
	r.set("ok_ratio", ratio{ok, r.attempted}.value(), r.attempted)
	if p, v, okTail := tailPercentile(m.walls); okTail {
		r.note("job_s_p%d = %.4f s (n=%d)", p, v, len(m.walls))
	} else {
		r.note("job_s_p90 = n/a: %d jobs leave fewer than %d samples beyond p90", len(m.walls), minTail)
	}
	r.note("failed_ratio = %d/%d = %.4f (failed, invalid or 429-refused over attempted; %d refused)",
		r.failed, r.attempted, ratio{r.failed, r.attempted}.value(), m.rejected)
	r.note("ph_pct = %.4f %% (mean P_h over the quality list; ph_free_pct = 100 - ph_pct)", mean(m.ph))
	r.note("process ru_maxrss = %.1f MB (rss_peak_mb is the median of per-job peaks sampled every %v)", m.maxRSSMB, rssEvery)
	return r
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := flag.Int64("seed", 1, "workload seed: generates the job list")
	secs := flag.Int("seconds", 15, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span files and journals")
	flag.Parse()

	if err := run(*workload, *seed, time.Duration(*secs)*time.Second, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, dur time.Duration, traced bool, outDir string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	ctx := context.Background()
	spanFile := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))

	var rep *report
	switch {
	case workload == wlService && traced:
		rep, err = serviceTraced(ctx, seed, dur, tmp, spanFile)
	case workload == wlService:
		rep, err = serviceE2E(ctx, seed, dur, tmp)
	case libraryListLen[workload] > 0 && traced:
		rep, err = libraryTraced(ctx, workload, seed, dur, spanFile)
	case libraryListLen[workload] > 0:
		rep, err = libraryE2E(ctx, workload, seed, dur)
	default:
		return fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloads, ", "))
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printReport(workload, seed, dur, traced, rep, defs)
	return nil
}

// hostFacts are recorded with every result: numbers from hosts that differ
// in any of them must not be compared.
func hostFacts(workload string, seed int64, dur time.Duration, traced bool) map[string]any {
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    dur.Seconds(),
		"traced":     traced,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printReport(workload string, seed int64, dur time.Duration, traced bool, rep *report, defs []metricDef) {
	host := hostFacts(workload, seed, dur, traced)
	keys := make([]string, 0, len(host))
	for k := range host {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("perfbench %s seed=%d traced=%v\n", workload, seed, traced)
	for _, k := range keys {
		fmt.Printf("  host.%s = %v\n", k, host[k])
	}
	metrics := map[string]metricValue{}
	for _, d := range defs {
		v := rep.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.correct = false
			rep.note("%s is not finite", d.name)
			v = 0
		}
		metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("  %-24s %14.6f %-6s (n=%d)\n", d.name, v, d.unit, rep.samples[d.name])
	}
	for _, n := range rep.notes {
		fmt.Println("  " + n)
	}
	hostLine, _ := json.Marshal(map[string]any{"host": host, "samples": rep.samples})
	fmt.Println(string(hostLine))
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, metrics})
	fmt.Println(string(last))
}
