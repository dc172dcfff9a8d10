// Command benchdiff compares two perf snapshots produced by
// `symbench -json` and prints per-experiment deltas, so perf trajectories
// across PRs are a one-command diff of committed BENCH_*.json files:
//
//	benchdiff BENCH_3_baseline.json BENCH_3.json
//	symbench -run table1 -json > now.json && benchdiff BENCH_3.json now.json
//
// Rows are matched by (experiment, name). For matched rows with timing data
// the delta and speedup are printed; rows present in only one snapshot are
// listed as added/removed. With -threshold P the exit status is 1 when any
// matched row regressed by more than P percent, so CI can gate on it.
//
// With -validate the arguments are checked instead of diffed: each file must
// parse as a non-empty symbench snapshot (exit 1 otherwise). CI uses it as
// the JSON validity check for symbench output, keeping the workflow free of
// non-Go tooling:
//
//	symbench -run table1 -quick -json > now.json && benchdiff -validate now.json
//
// With -merge-min the arguments are merged row-wise to a best-of-N snapshot
// on stdout (minimum of every timing column; other fields from the first
// file). Single runs on shared CI machines are as noisy as the regressions
// the gate hunts, so the gate measures best-of-N per side:
//
//	benchdiff -merge-min run1.json run2.json run3.json > best.json
//
// -ns-key points both sides at a specific "*_ns" extra column; -ns-key-new
// overrides the column for the new side only, so one snapshot passed twice
// compares two of its own columns (how CI gates the churn and pool speedups):
//
//	benchdiff -ns-key full_ns -ns-key-new delta_ns -min-speedup 5 churn.json churn.json
//
// A key that no row on its side carries is a pointed error listing the
// timing columns the snapshot does have — never a zero-row pass that would
// silently disarm a CI gate.
//
// Snapshots come in two shapes, both accepted everywhere: the legacy row
// array, and the {"schema","rows","metrics"} envelope symbench emits with
// -metrics. When both sides of a diff carry a metrics block the blocks are
// diffed too — hit-rate ratios for paired ".hits"/".misses" counters, mean
// wall-clock per "*_ns" histogram (phase timings), plain deltas for the
// rest. Metrics blocks of different schema versions are never compared:
// renamed keys would diff as added/removed noise, so benchdiff exits with a
// pointed error instead (-merge-min keeps rows only and drops metrics).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"symnet/internal/obs"
)

// row mirrors the jsonRow shape cmd/symbench emits. Unknown fields are
// ignored, so the two tools can evolve independently.
type row struct {
	Experiment string         `json:"experiment"`
	Name       string         `json:"name"`
	Paths      int            `json:"paths,omitempty"`
	Hops       int            `json:"hops,omitempty"`
	NsPerOp    int64          `json:"ns_per_op,omitempty"`
	Solver     any            `json:"solver,omitempty"`
	Extra      map[string]any `json:"extra,omitempty"`
}

type key struct{ experiment, name string }

// nsKey, when set via -ns-key, selects a specific "*_ns" extra column as
// the timing source instead of the default chain. The multicore CI gate
// uses it to compare par_ns across worker counts and dist_ns across procs.
var nsKey string

// nsKeyNew, when set via -ns-key-new, selects the timing column for the NEW
// (second) snapshot's rows, defaulting to -ns-key. Pointing the sides at
// different columns turns the gate into a within-row comparison of one
// snapshot passed twice — the churn CI gate runs
// `-ns-key full_ns -ns-key-new delta_ns -min-speedup 5 churn.json churn.json`.
var nsKeyNew string

// ns extracts an old-side row's timing: the -ns-key extra column when set,
// otherwise ns_per_op falling back to the extra columns batch experiments
// use (seq_ns for in-process all-pairs, dist_ns for the distributed
// runner). 0 means the row carries no timing.
func (r row) ns() int64 { return r.nsFrom(nsKey) }

// nsNew extracts a new-side row's timing: like ns, but -ns-key-new takes
// precedence when set.
func (r row) nsNew() int64 {
	if nsKeyNew != "" {
		return r.nsFrom(nsKeyNew)
	}
	return r.nsFrom(nsKey)
}

func (r row) nsFrom(key string) int64 {
	if key != "" {
		if f, ok := r.Extra[key].(float64); ok {
			return int64(f)
		}
		return 0
	}
	if r.NsPerOp != 0 {
		return r.NsPerOp
	}
	for _, k := range []string{"seq_ns", "dist_ns"} {
		if v, ok := r.Extra[k]; ok {
			if f, ok := v.(float64); ok {
				return int64(f)
			}
		}
	}
	return 0
}

func load(path string) (map[key]row, []key, *obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	rows, metrics, err := parseSnapshot(data)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	m := make(map[key]row, len(rows))
	var order []key
	for _, r := range rows {
		k := key{r.Experiment, r.Name}
		if _, dup := m[k]; !dup {
			order = append(order, k)
		}
		m[k] = r
	}
	return m, order, metrics, nil
}

// parseSnapshot accepts both symbench output shapes: the legacy row array,
// and the {"schema","rows","metrics"} envelope emitted with -metrics.
func parseSnapshot(data []byte) ([]row, *obs.Snapshot, error) {
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		var env struct {
			Schema  int           `json:"schema"`
			Rows    []row         `json:"rows"`
			Metrics *obs.Snapshot `json:"metrics"`
		}
		if err := json.Unmarshal(data, &env); err != nil {
			return nil, nil, err
		}
		if env.Rows == nil {
			return nil, nil, fmt.Errorf("object is neither a row array nor a {schema,rows,metrics} envelope")
		}
		return env.Rows, env.Metrics, nil
	}
	var rows []row
	if err := json.Unmarshal(data, &rows); err != nil {
		return nil, nil, err
	}
	return rows, nil, nil
}

func main() {
	threshold := flag.Float64("threshold", 0, "fail (exit 1) when any matched row regresses by more than this percent (0 disables)")
	minSpeedup := flag.Float64("min-speedup", 0, "fail (exit 1) when any matched timed row's old/new speedup is below this factor (0 disables; the multicore CI gate uses it to assert parallel/dist wins)")
	flag.StringVar(&nsKey, "ns-key", "", "read timings from this extra column (e.g. par_ns, dist_ns) instead of the default ns_per_op chain")
	flag.StringVar(&nsKeyNew, "ns-key-new", "", "read the NEW snapshot's timings from this extra column (defaults to -ns-key); with both set, one snapshot passed twice compares two of its own columns (the churn gate: -ns-key full_ns -ns-key-new delta_ns)")
	validate := flag.Bool("validate", false, "validate the given snapshot files instead of diffing (each must be a non-empty symbench JSON array)")
	mergeMin := flag.Bool("merge-min", false, "merge the given snapshots row-wise to a best-of-N snapshot on stdout (min of every timing column)")
	flag.Parse()
	if *mergeMin {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -merge-min FILE.json...")
			os.Exit(2)
		}
		if err := runMergeMin(flag.Args()); err != nil {
			fatal(err)
		}
		return
	}
	if *validate {
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: benchdiff -validate FILE.json...")
			os.Exit(2)
		}
		for _, path := range flag.Args() {
			rows, _, metrics, err := load(path)
			if err != nil {
				fatal(err)
			}
			if len(rows) == 0 {
				fatal(fmt.Errorf("%s: snapshot holds no rows", path))
			}
			if metrics != nil {
				fmt.Printf("%s: ok (%d rows, metrics schema %d)\n", path, len(rows), metrics.Schema)
			} else {
				fmt.Printf("%s: ok (%d rows)\n", path, len(rows))
			}
		}
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold PCT] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRows, oldOrder, oldMetrics, err := load(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	newRows, newOrder, newMetrics, err := load(flag.Arg(1))
	if err != nil {
		fatal(err)
	}
	if err := checkMetricsSchemas(oldMetrics, newMetrics); err != nil {
		fatal(err)
	}
	if err := checkNsKeyPresence(flag.Arg(0), oldRows, nsKey); err != nil {
		fatal(err)
	}
	effNew := nsKeyNew
	if effNew == "" {
		effNew = nsKey
	}
	if err := checkNsKeyPresence(flag.Arg(1), newRows, effNew); err != nil {
		fatal(err)
	}

	fmt.Printf("%-12s %-24s %14s %14s %9s\n", "experiment", "name", "old", "new", "speedup")
	var matched, timed, improved, regressed, failed int
	for _, k := range oldOrder {
		o := oldRows[k]
		n, ok := newRows[k]
		if !ok {
			fmt.Printf("%-12s %-24s %14s %14s %9s\n", k.experiment, k.name, fmtNs(o.ns()), "removed", "")
			continue
		}
		matched++
		ons, nns := o.ns(), n.nsNew()
		if ons == 0 || nns == 0 {
			// Rows without timing (capability tables, scenario checks) are
			// matched for presence only.
			continue
		}
		timed++
		speedup := float64(ons) / float64(nns)
		mark := ""
		switch {
		case speedup >= 1.02:
			improved++
			mark = " +"
		case speedup <= 0.98:
			regressed++
			mark = " -"
		}
		rowFailed := false
		if *threshold > 0 && float64(nns) > float64(ons)*(1+*threshold/100) {
			rowFailed = true
			mark = " REGRESSION"
		}
		if *minSpeedup > 0 && speedup < *minSpeedup {
			rowFailed = true
			mark += fmt.Sprintf(" BELOW %.2fx", *minSpeedup)
		}
		if rowFailed {
			failed++
		}
		fmt.Printf("%-12s %-24s %14s %14s %8.2fx%s\n",
			k.experiment, k.name, fmtNs(ons), fmtNs(nns), speedup, mark)
	}
	var added []key
	for _, k := range newOrder {
		if _, ok := oldRows[k]; !ok {
			added = append(added, k)
		}
	}
	sort.Slice(added, func(i, j int) bool {
		if added[i].experiment != added[j].experiment {
			return added[i].experiment < added[j].experiment
		}
		return added[i].name < added[j].name
	})
	for _, k := range added {
		fmt.Printf("%-12s %-24s %14s %14s %9s\n", k.experiment, k.name, "added", fmtNs(newRows[k].nsNew()), "")
	}
	fmt.Printf("\n%d rows matched (%d timed): %d faster, %d slower, %d within noise\n",
		matched, timed, improved, regressed, timed-improved-regressed)
	diffMetrics(os.Stdout, oldMetrics, newMetrics)
	if *minSpeedup > 0 && timed == 0 {
		// A speedup gate with nothing to measure must not pass vacuously
		// (a renamed timing column would otherwise disarm the CI gate).
		fmt.Fprintln(os.Stderr, "benchdiff: -min-speedup found no timed matched rows")
		os.Exit(1)
	}
	if failed > 0 {
		if *minSpeedup > 0 {
			fmt.Fprintf(os.Stderr, "benchdiff: %d row(s) failed the gate (threshold %.1f%%, min speedup %.2fx)\n", failed, *threshold, *minSpeedup)
		} else {
			fmt.Fprintf(os.Stderr, "benchdiff: %d row(s) regressed beyond %.1f%%\n", failed, *threshold)
		}
		os.Exit(1)
	}
}

// runMergeMin merges snapshots row-wise (matched by experiment+name) into a
// best-of-N snapshot on stdout: the minimum of ns_per_op and of every
// "*_ns" extra column; non-timing fields come from the first file. Rows
// missing from later files keep the first file's values.
func runMergeMin(paths []string) error {
	first, order, _, err := load(paths[0])
	if err != nil {
		return err
	}
	for _, path := range paths[1:] {
		other, _, _, err := load(path)
		if err != nil {
			return err
		}
		for k, o := range other {
			r, ok := first[k]
			if !ok {
				continue
			}
			if o.NsPerOp > 0 && (r.NsPerOp == 0 || o.NsPerOp < r.NsPerOp) {
				r.NsPerOp = o.NsPerOp
			}
			for ek, ov := range o.Extra {
				if len(ek) < 3 || ek[len(ek)-3:] != "_ns" {
					continue
				}
				of, ok := ov.(float64)
				if !ok || of <= 0 {
					continue
				}
				if r.Extra == nil {
					r.Extra = map[string]any{}
				}
				if rf, ok := r.Extra[ek].(float64); !ok || of < rf {
					r.Extra[ek] = of
				}
			}
			first[k] = r
		}
	}
	out := make([]row, 0, len(order))
	for _, k := range order {
		out = append(out, first[k])
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// checkNsKeyPresence rejects an -ns-key (or effective -ns-key-new) that no
// row in the given snapshot carries: every row's timing would silently read
// as 0, the diff would print zero timed rows, and a gate without
// -min-speedup would pass vacuously — a renamed column must be a pointed
// error, not a green check. The error lists the timing columns the snapshot
// does carry, so the fix is one glance away.
func checkNsKeyPresence(path string, rows map[key]row, k string) error {
	if k == "" {
		return nil
	}
	avail := map[string]int64{}
	for _, r := range rows {
		if _, ok := r.Extra[k]; ok {
			return nil
		}
		for ek := range r.Extra {
			if strings.HasSuffix(ek, "_ns") {
				avail[ek] = 0
			}
		}
	}
	cols := unionKeys(avail, nil)
	if len(cols) == 0 {
		return fmt.Errorf("-ns-key %q: no row in %s carries that extra column (the snapshot has no *_ns columns at all)", k, path)
	}
	return fmt.Errorf("-ns-key %q: no row in %s carries that extra column (available: %s)", k, path, strings.Join(cols, ", "))
}

// checkMetricsSchemas rejects diffing metrics blocks of different schema
// versions: a schema bump means keys were renamed or resemantized, and
// diffing those as added/removed noise would hide the real change. One side
// lacking metrics is fine (the block is simply not diffed).
func checkMetricsSchemas(o, n *obs.Snapshot) error {
	if o == nil || n == nil || o.Schema == n.Schema {
		return nil
	}
	return fmt.Errorf("metrics schema mismatch: old snapshot is schema %d, new is schema %d — metric keys are not comparable across schemas; regenerate both snapshots with the same symbench binary", o.Schema, n.Schema)
}

// diffMetrics prints the metrics-block comparison when both snapshots carry
// one of the same schema (checkMetricsSchemas runs first): hit-rate ratios
// for counters paired as "X.hits"/"X.misses", mean latency plus speedup for
// "*_ns" histograms (the phase and per-worker timings), and plain old/new
// values for the remaining counters and gauges. One-sided metrics are noted
// and skipped — there is nothing to compare against.
func diffMetrics(w io.Writer, o, n *obs.Snapshot) {
	if o == nil && n == nil {
		return
	}
	if o == nil || n == nil {
		side := "new"
		if n == nil {
			side = "old"
		}
		fmt.Fprintf(w, "\nmetrics: only the %s snapshot carries a metrics block; run both with -metrics to diff it\n", side)
		return
	}
	fmt.Fprintf(w, "\nmetrics (schema %d):\n", o.Schema)
	shown := map[string]bool{}
	// Hit rates first: the headline cache-effectiveness ratios.
	for _, k := range unionKeys(o.Counters, n.Counters) {
		if !strings.HasSuffix(k, ".hits") {
			continue
		}
		base := strings.TrimSuffix(k, ".hits")
		missKey := base + ".misses"
		_, om := o.Counters[missKey]
		_, nm := n.Counters[missKey]
		if !om && !nm {
			continue
		}
		shown[k], shown[missKey] = true, true
		fmt.Fprintf(w, "  %-34s %14s %14s\n", base+" hit rate",
			fmtRate(o.Counters[k], o.Counters[missKey]),
			fmtRate(n.Counters[k], n.Counters[missKey]))
	}
	// Timing histograms: mean per observation, with the old/new speedup.
	histKeys := map[string]int64{}
	for k := range o.Hists {
		histKeys[k] = 0
	}
	for k := range n.Hists {
		histKeys[k] = 0
	}
	for _, k := range unionKeys(histKeys, nil) {
		if !strings.HasSuffix(k, "_ns") {
			continue
		}
		om, nm := o.Hists[k].Mean(), n.Hists[k].Mean()
		line := fmt.Sprintf("  %-34s %14s %14s", k+" mean", fmtNsFine(om), fmtNsFine(nm))
		if om > 0 && nm > 0 {
			line += fmt.Sprintf(" %8.2fx", float64(om)/float64(nm))
		}
		fmt.Fprintln(w, line)
	}
	// Everything else: raw old/new counter and gauge values.
	for _, k := range unionKeys(o.Counters, n.Counters) {
		if shown[k] {
			continue
		}
		fmt.Fprintf(w, "  %-34s %14d %14d\n", k, o.Counters[k], n.Counters[k])
	}
	for _, k := range unionKeys(o.Gauges, n.Gauges) {
		fmt.Fprintf(w, "  %-34s %14d %14d\n", k, o.Gauges[k], n.Gauges[k])
	}
}

// unionKeys returns the sorted union of the two maps' keys.
func unionKeys(a, b map[string]int64) []string {
	seen := make(map[string]bool, len(a)+len(b))
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtRate renders hits/(hits+misses) as a percentage ("-" when no traffic).
func fmtRate(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%% (%d/%d)", 100*float64(hits)/float64(total), hits, total)
}

// fmtNs renders a nanosecond count in a human unit (empty when zero).
func fmtNs(ns int64) string {
	if ns == 0 {
		return ""
	}
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// fmtNsFine renders a nanosecond count with magnitude-relative rounding.
// Histogram means (per-Sat-check latencies run to single-digit microseconds)
// would all collapse to "0s" under fmtNs's fixed 10µs rounding.
func fmtNsFine(ns int64) string {
	if ns == 0 {
		return "-"
	}
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(1)
}
