package verify

import (
	"fmt"

	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/sefl"
)

// AllPairsReachabilityDist answers the all-pairs reachability matrix by
// sharding the per-source runs across procs worker subprocesses (see
// dist.RunBatch); procs <= 0 answers in-process. The report carries
// Summaries, not live Results: live paths (solver contexts, packet memory)
// stay in the worker processes, so follow-up field queries are not
// available. The matrix is byte-identical to AllPairsReachability's for
// every (procs, workersPerProc) pair — per-path last-hop positions are part
// of the deterministic summaries the property tests in internal/dist pin
// down.
func AllPairsReachabilityDist(net *core.Network, sources []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, procs, workersPerProc int) (*AllPairsReport, error) {
	return AllPairsReachabilityDistConfig(net, sources, packet, targets, opts, dist.Config{
		Procs: procs, WorkersPerProc: workersPerProc, ShareSat: true,
	})
}

// AllPairsReachabilityDistConfig is AllPairsReachabilityDist with an explicit
// fleet configuration — TCP worker addresses, steal/retry policy, the full
// dist.Config surface. cfg.Obs defaults to opts.Obs. The matrix stays
// byte-identical to AllPairsReachability's for every fleet shape.
func AllPairsReachabilityDistConfig(net *core.Network, sources []core.PortRef, packet sefl.Instr, targets []string, opts core.Options, cfg dist.Config) (*AllPairsReport, error) {
	o := opts.Obs
	if cfg.Obs == nil {
		cfg.Obs = o
	}
	defer o.Span("solve", "allpairs-dist", -1)()
	pm := newPairMetrics(o)
	jobs := make([]dist.Job, len(sources))
	for i, src := range sources {
		jobs[i] = dist.Job{Name: src.String(), Inject: src, Packet: packet, Opts: opts}
	}
	results := dist.RunBatchConfig(net, jobs, cfg)
	rep := NewSummaryReport(sources, targets)
	for i, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("verify: all-pairs source %s: %w", jr.Name, jr.Err)
		}
		rep.setSummary(i, jr.Summary, pm)
	}
	return rep, nil
}
