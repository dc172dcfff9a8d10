package verify

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/sched"
	"symnet/internal/sefl"
)

// AllPairsReport answers "which sources reach which targets?" for a set of
// injection ports and target elements — the workload shape of batch
// verification and repair-and-verify tools, which re-run many reachability
// queries per candidate configuration change.
type AllPairsReport struct {
	Sources []core.PortRef
	Targets []string
	// Reachable[s][t] reports whether any delivered path from Sources[s]
	// ends at Targets[t].
	Reachable [][]bool
	// PathCount[s][t] is the number of such paths.
	PathCount [][]int
	// Results holds the per-source live run results, aligned with Sources,
	// for follow-up queries (ConcretePacket, FieldEndToEnd, ...). Only
	// AllPairsReachability fills it; reports built from summaries leave it
	// nil.
	Results []*core.Result
	// Summaries holds the per-source run summaries, aligned with Sources,
	// when the report was built from them (AllPairsReachabilityDist, the
	// churn service): statuses, port trails, traces, solver statistics and
	// constraint fingerprints, but no live solver contexts or packets.
	Summaries []*dist.Summary
}

// NewSummaryReport returns an empty report over sources and targets whose
// rows SetSummary fills.
func NewSummaryReport(sources []core.PortRef, targets []string) *AllPairsReport {
	return &AllPairsReport{
		Sources:   sources,
		Targets:   targets,
		Reachable: make([][]bool, len(sources)),
		PathCount: make([][]int, len(sources)),
		Summaries: make([]*dist.Summary, len(sources)),
	}
}

// SetSummary installs source i's run summary and replaces its reachability
// and path-count rows with fresh ones read off the summary's delivered
// paths. Rows are replaced, never written in place, so SetSummary is safe
// on a CloneShallow copy whose original readers still traverse.
func (r *AllPairsReport) SetSummary(i int, sum *dist.Summary) { r.setSummary(i, sum, pairMetrics{}) }

func (r *AllPairsReport) setSummary(i int, sum *dist.Summary, pm pairMetrics) {
	row := make([]bool, len(r.Targets))
	cnt := make([]int, len(r.Targets))
	for t, target := range r.Targets {
		pt := pm.pairNs.Start()
		n := sum.DeliveredAt(target, -1)
		pt.Stop()
		row[t] = n > 0
		cnt[t] = n
		pm.count(n > 0)
	}
	r.Summaries[i] = sum
	r.Reachable[i] = row
	r.PathCount[i] = cnt
}

// Pairs returns the number of (source, target) pairs answered.
func (r *AllPairsReport) Pairs() int { return len(r.Sources) * len(r.Targets) }

// AllPairsReachability injects the packet at every source and reports, for
// each (source, target) pair, whether the target is reachable. One symbolic
// run per source answers all targets for that source; runs are fanned across
// a bounded worker pool (workers <= 0 selects GOMAXPROCS). The report is
// deterministic: results are merged in source order, and each run is
// identical to a standalone core.Run.
func AllPairsReachability(net *core.Network, sources []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, workers int) (*AllPairsReport, error) {
	o := opts.Obs
	defer o.Span("solve", "allpairs", -1)()
	pm := newPairMetrics(o)
	jobs := make([]sched.Job, len(sources))
	for i, src := range sources {
		jobs[i] = sched.Job{Name: src.String(), Inject: src, Packet: packet, Opts: opts}
	}
	results := sched.RunBatchObs(net, jobs, workers, o)
	rep := &AllPairsReport{
		Sources:   sources,
		Targets:   targets,
		Reachable: make([][]bool, len(sources)),
		PathCount: make([][]int, len(sources)),
		Results:   make([]*core.Result, len(sources)),
	}
	for i, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("verify: all-pairs source %s: %w", jr.Name, jr.Err)
		}
		rep.Results[i] = jr.Result
		rep.Reachable[i] = make([]bool, len(targets))
		rep.PathCount[i] = make([]int, len(targets))
		for t, target := range targets {
			pt := pm.pairNs.Start()
			paths := jr.Result.DeliveredAt(target, -1)
			pt.Stop()
			rep.Reachable[i][t] = len(paths) > 0
			rep.PathCount[i][t] = len(paths)
			pm.count(len(paths) > 0)
		}
	}
	return rep, nil
}
