package symnet

import (
	"fmt"
	"io"

	"symnet/internal/churn"
	"symnet/internal/core"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/obs"
	"symnet/internal/sched"
	"symnet/internal/sefl"
	"symnet/internal/tables"
	"symnet/internal/verify"
)

// Forwarding-table types for ServeConfig. See internal/tables.
type (
	// FIB is a router's forwarding table (longest-prefix-match routes).
	FIB = tables.FIB
	// Route is one FIB entry: Prefix/Len forwarded out Port.
	Route = tables.Route
	// MACTable is a switch's MAC learning table.
	MACTable = tables.MACTable
	// MACEntry is one MAC table entry: MAC forwarded out Port.
	MACEntry = tables.MACEntry
)

// Verification report types. See internal/verify.
type (
	// AllPairsReport is the sources x targets reachability matrix.
	AllPairsReport = verify.AllPairsReport
	// CellDelta is one report cell that changed between two versions.
	CellDelta = verify.CellDelta
)

// Churn serving types. See internal/churn for full documentation.
type (
	// Delta is one forwarding-rule update (FIB route or MAC entry
	// insert/delete/modify). It doubles as the symnetd wire format.
	Delta = churn.Delta
	// DeltaStatus is the per-delta outcome of an Apply.
	DeltaStatus = churn.DeltaStatus
	// ApplyReport reports one Apply call's absorption: the (possibly
	// coalesced) batch it rode in plus per-delta statuses.
	ApplyReport = churn.ApplyResult
	// BatchReport describes one absorbed batch: reconcile tier, dirty-set
	// size, cells re-verified, reachability transitions, elapsed time.
	BatchReport = churn.BatchResult
	// PublishedReport is an immutable versioned report snapshot.
	PublishedReport = churn.PublishedReport
	// VersionEvent is one published version plus its cell transitions.
	VersionEvent = churn.VersionEvent
	// Transition is one reachability-cell flip between versions.
	Transition = churn.Transition
	// Subscription is a live feed of VersionEvents (see Serving.Watch).
	Subscription = churn.Subscription
	// ServingState is a serializable snapshot of resident tables + version.
	ServingState = churn.State
)

// Delta operations.
const (
	OpInsert = churn.OpInsert
	OpDelete = churn.OpDelete
	OpModify = churn.OpModify
)

// ReadServingState deserializes a snapshot written by ServingState.WriteTo.
func ReadServingState(r io.Reader) (*ServingState, error) { return churn.ReadState(r) }

// DecodeDeltas reads a JSON-lines delta stream (the symgen/symnetd format).
func DecodeDeltas(r io.Reader) ([]Delta, error) { return churn.DecodeDeltas(r) }

// EncodeDeltas writes deltas as JSON lines.
func EncodeDeltas(w io.Writer, ds []Delta) error { return churn.EncodeDeltas(w, ds) }

// Session is a compiled network plus the run configuration shared by every
// query against it: the options, the worker budget, and a cross-run
// satisfiability memo. Build one with Compile, then issue queries with Run,
// RunBatch and AllPairs, or start a churn-serving handle with Serve.
//
// Worker semantics (Options.Workers) are uniform across the session:
//
//	> 1  — parallel exploration/fan-out with that many workers
//	  0,1 — sequential (the zero value never spawns goroutines)
//	< 0  — all cores
//
// Results are byte-identical at every worker count.
type Session struct {
	net  *Network
	opts Options
}

// Compile validates the network and pins the session's run options. Element
// programs compile lazily on first use. A nil Options.SatMemo is replaced
// with a fresh session-held memo, so repeated queries share solver verdicts
// by default.
func Compile(net *Network, opts Options) (*Session, error) {
	if net == nil {
		return nil, fmt.Errorf("symnet: Compile on nil network")
	}
	if opts.SatMemo == nil {
		opts.SatMemo = NewSatMemo()
	}
	return &Session{net: net, opts: opts}, nil
}

// Network returns the session's network. Mutating it while a Serving handle
// is live is a data race; route changes through Serving.Apply instead.
func (s *Session) Network() *Network { return s.net }

// Options returns the session's pinned run options.
func (s *Session) Options() Options { return s.opts }

// Run injects a symbolic packet built by init at an input port and explores
// every feasible path, honoring the session's worker semantics.
func (s *Session) Run(inject PortRef, init sefl.Instr) (*Result, error) {
	if w := s.opts.Workers; w > 1 || w < 0 {
		return sched.Run(s.net, inject, init, s.opts, w)
	}
	return core.Run(s.net, inject, init, s.opts)
}

// RunBatch runs independent queries against the network, fanning jobs
// across the session's worker pool (Workers <= 0 selects all cores). Jobs
// with a nil Opts.SatMemo share the session memo; results are identical
// with or without sharing.
func (s *Session) RunBatch(jobs []BatchJob) []BatchResult {
	shared := make([]BatchJob, len(jobs))
	for i, j := range jobs {
		if j.Opts.SatMemo == nil {
			j.Opts.SatMemo = s.opts.SatMemo
		}
		shared[i] = j
	}
	return sched.RunBatch(s.net, shared, s.opts.Workers)
}

// AllPairs computes the sources x targets reachability matrix under the
// session options (Workers <= 0 selects all cores).
func (s *Session) AllPairs(sources []PortRef, packet sefl.Instr, targets []string) (*AllPairsReport, error) {
	return verify.AllPairsReachability(s.net, sources, packet, targets, s.opts, s.opts.Workers)
}

// ServeConfig describes a resident churn-serving workload: the monitored
// all-pairs query plus the authoritative forwarding tables of the elements
// that will receive deltas. Serve (re)models each listed element from its
// table — Egress style, the patchable tier — so the caller only builds the
// topology (AddElement + Link) and hands over the tables.
type ServeConfig struct {
	// Sources and Targets define the monitored reachability matrix.
	Sources []PortRef
	Targets []string
	// Packet builds the injected symbolic packet (e.g. sefl.NewTCPPacket()).
	Packet sefl.Instr
	// Routers and Switches map element names to their authoritative tables.
	Routers  map[string]FIB
	Switches map[string]MACTable
	// DistProcs > 0 shards every verification pass (the initial all-pairs run
	// and each churn re-verification) across that many persistent local
	// worker subprocesses instead of the in-process scheduler. The pool
	// outlives batches: workers keep the compiled network installed, and rule
	// churn reaches them as per-port program deltas. Either way the passes
	// run through one dist.Pool (without workers it runs in process) and
	// reports carry dist summaries; published observables are byte-identical
	// to in-process serving.
	DistProcs int
	// DistWorkers lists resident TCP worker addresses (host:port of
	// `symworker -listen` processes, possibly on other machines). When
	// non-empty it selects the fleet and DistProcs is ignored.
	DistWorkers []string
}

// Serving is a live churn-serving handle: a resident verification of the
// configured all-pairs query that absorbs rule deltas incrementally and
// publishes versioned report snapshots. Reads (Current, Version, Watch,
// TransitionsSince) are lock-free; all mutations funnel through Apply's
// single-writer absorber, which coalesces concurrent calls into one pass.
// Every published report is byte-identical to a from-scratch verification of
// the same rules. Registry exposes the churn.*, solver.satcache.* and (with a
// fleet) dist.* instruments. See churn.Resident for the full method docs.
type Serving = churn.Resident

// Serve models the configured elements from their tables, runs the initial
// all-pairs verification (published as version 1), and starts the absorber.
// Close the handle when done; it also dismisses the worker fleet.
func (s *Session) Serve(cfg ServeConfig) (*Serving, error) {
	for name, fib := range cfg.Routers {
		e, ok := s.net.Element(name)
		if !ok {
			return nil, fmt.Errorf("symnet: serve: unknown router element %q", name)
		}
		if err := models.Router(e, fib, models.Egress); err != nil {
			return nil, fmt.Errorf("symnet: serve: model router %q: %w", name, err)
		}
	}
	for name, tbl := range cfg.Switches {
		e, ok := s.net.Element(name)
		if !ok {
			return nil, fmt.Errorf("symnet: serve: unknown switch element %q", name)
		}
		if err := models.Switch(e, tbl, models.Egress); err != nil {
			return nil, fmt.Errorf("symnet: serve: model switch %q: %w", name, err)
		}
	}
	// The serving registry (Serving.Registry) carries the churn.* and
	// solver.satcache.* instruments, and a fleet's dist.* ones unless
	// Options.Obs claims them. The engine keeps Options.Obs as given, so a
	// nil Obs leaves compiled-program execution untimed — which is also why
	// a pool without workers (it runs jobs in process, where its Obs would
	// time every job) gets Options.Obs unchanged.
	reg := obs.NewRegistry()
	poolObs := s.opts.Obs
	if poolObs == nil && (cfg.DistProcs > 0 || len(cfg.DistWorkers) > 0) {
		poolObs = obs.New(reg, nil)
	}
	pool, err := dist.NewPool(dist.Config{
		Procs:          cfg.DistProcs,
		Workers:        cfg.DistWorkers,
		WorkersPerProc: s.opts.Workers,
		ShareSat:       true,
		Obs:            poolObs,
	})
	if err != nil {
		return nil, fmt.Errorf("symnet: serve: %w", err)
	}
	svc := churn.NewService(churn.Config{
		Net:     s.net,
		Sources: cfg.Sources,
		Targets: cfg.Targets,
		Packet:  cfg.Packet,
		Opts:    s.opts,
		Runner:  pool,
		Reg:     reg,
	})
	for name, fib := range cfg.Routers {
		svc.RegisterRouter(name, fib)
	}
	for name, tbl := range cfg.Switches {
		svc.RegisterSwitch(name, tbl)
	}
	res := churn.NewResident(svc, churn.ResidentConfig{})
	if err := svc.Init(); err != nil {
		res.Close() // dismisses the pool
		return nil, fmt.Errorf("symnet: serve: initial verification: %w", err)
	}
	if err := res.Start(); err != nil {
		res.Close()
		return nil, err
	}
	return res, nil
}
