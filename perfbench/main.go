// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload allpairs --seed 1 --seconds 10 --trace 0
//
// Workloads: allpairs (batch all-pairs verification in process),
// serve-backbone and serve-dept (the symnetd daemon over loopback HTTP), and
// fleet (a persistent dist.Pool of worker processes). With --trace 0 it
// prints the end-to-end metrics; with --trace 1 it prints the per-module
// metrics, timed by spans the benchmark records around its calls into the
// program and written to -spans. See README.md for the metric catalogue.
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

	"symnet/internal/dist"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	symnetd  string // daemon binary for the serve workloads
	expected string // recorded all-pairs matrices
	spans    string // directory for span files; empty: keep none
}

// endToEnd and perLayer name every metric a run prints, with its unit; they
// match BENCHMARK.json.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"peak_rss_mb": "MB",
	"op_p50_ms":   "ms",
	"op2_p50_ms":  "ms",
}

var perLayer = map[string]string{
	"prog.compile_ms":                  "ms",
	"prog.compile_count":               "count",
	"core.run_p50_ms":                  "ms",
	"core.paths_per_matrix":            "count",
	"core.failed_path_share":           "ratio",
	"core.history_entries":             "count",
	"solver.sat_checks":                "count",
	"solver.adds":                      "count",
	"solver.branches":                  "count",
	"solver.memo_hit_ratio":            "ratio",
	"sched.speedup":                    "ratio",
	"sched.steals":                     "count",
	"verify.allocs_per_matrix":         "count",
	"verify.bytes_per_matrix":          "B",
	"verify.gc_cycles_per_matrix":      "count",
	"churn.init_explore_s":             "s",
	"churn.init_index_s":               "s",
	"churn.absorb_p50_ms":              "ms",
	"churn.batch_deltas_p50":           "count",
	"churn.dirty_sources_per_delta":    "count",
	"churn.cells_reverified_per_delta": "count",
	"churn.useful_share":               "ratio",
	"churn.patched_share":              "ratio",
	"symnetd.post_overhead_p50_ms":     "ms",
	"symnetd.watch_lag_p50_ms":         "ms",
	"symnetd.report_bytes":             "B",
	"symnetd.report_read_p50_ms":       "ms",
	"dist.encode_ms":                   "ms",
	"dist.decode_ms":                   "ms",
	"dist.setup_bytes":                 "B",
	"dist.frame_bytes_per_batch":       "B",
	"dist.jobs_stolen":                 "count",
	"dist.batch_overhead_ms":           "ms",
	"obs.trace_overhead_share":         "ratio",
}

// idleGroups are the module metrics a workload leaves idle; it reports them
// as 0.
var idleGroups = map[string][]string{
	"churn": {"churn.init_explore_s", "churn.init_index_s", "churn.absorb_p50_ms",
		"churn.batch_deltas_p50", "churn.dirty_sources_per_delta",
		"churn.cells_reverified_per_delta", "churn.useful_share", "churn.patched_share"},
	"symnetd": {"symnetd.post_overhead_p50_ms", "symnetd.watch_lag_p50_ms", "symnetd.report_bytes",
		"symnetd.report_read_p50_ms"},
	"dist-pool": {"dist.frame_bytes_per_batch", "dist.jobs_stolen", "dist.batch_overhead_ms"},
}

func idle(out map[string]metric, groups ...string) {
	for _, g := range groups {
		for _, name := range idleGroups[g] {
			out[name] = metric{0, perLayer[name]}
		}
	}
}

var workloads = map[string]func(*config) (*result, error){
	"allpairs":       runAllpairs,
	"serve-backbone": func(c *config) (*result, error) { return runServe(c, serveBackbone) },
	"serve-dept":     func(c *config) (*result, error) { return runServe(c, serveDept) },
	"fleet":          runFleet,
}

// finish checks the metric set, writes the spans and builds the result.
func finish(cfg *config, tr *tracer, tl *tally, out map[string]metric) *result {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for name, unit := range want {
		m, ok := out[name]
		switch {
		case !ok:
			tl.fail("metric %s not measured", name)
		case m.Unit != unit:
			tl.fail("metric %s in %s, want %s", name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			tl.fail("metric %s is %v", name, m.Value)
			out[name] = metric{0, unit}
		}
	}
	for name := range out {
		if _, ok := want[name]; !ok {
			delete(out, name)
		}
	}
	if cfg.spans != "" {
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d-trace%v.jsonl", cfg.workload, cfg.seed, cfg.trace))
		if err := tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
		}
	}
	for _, r := range tl.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", r)
	}
	return &result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: out}
}

func main() {
	dist.MaybeWorker() // fleet worker processes re-execute this binary
	cfg := &config{}
	var seconds int
	var trace int
	var recordTo string
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for job orders and delta streams")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: print per-module metrics instead of end-to-end ones")
	flag.StringVar(&cfg.symnetd, "symnetd", "", "symnetd binary (serve workloads)")
	flag.StringVar(&cfg.expected, "expected", "perfbench/expected/allpairs.json", "recorded all-pairs matrices")
	flag.StringVar(&cfg.spans, "spans", "", "directory for span files")
	flag.StringVar(&recordTo, "record", "", "compute the all-pairs matrices, write them to this file and exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1

	if recordTo != "" {
		if err := recordExpected(recordTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	if strings.HasPrefix(cfg.workload, "serve") && cfg.symnetd == "" {
		fmt.Fprintln(os.Stderr, "perfbench: serve workloads need -symnetd")
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d\n", cfg.workload, cfg.seed, seconds, trace)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// recordExpected writes the department and backbone matrices in source
// order; the backbone's must first agree with the HSA oracle.
func recordExpected(path string) error {
	out := map[string]*expectedMatrix{}
	for _, m := range []*matrixNet{buildDepartment(), buildBackbone()} {
		sess, err := m.session(-1, nil)
		if err != nil {
			return err
		}
		rep, err := sess.AllPairs(m.sources, m.packet, m.targets)
		if err != nil {
			return err
		}
		out[m.name] = record(m.sources, m.targets, rep.Reachable, rep.PathCount)
		if m.hnet != nil {
			if err := out[m.name].check(m.sources, m.targets, m.hsaMatrix(), nil); err != nil {
				return fmt.Errorf("backbone disagrees with HSA: %w", err)
			}
		}
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
