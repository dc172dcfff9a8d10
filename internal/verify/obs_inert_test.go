package verify_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/obs"
	"symnet/internal/sefl"
	"symnet/internal/verify"
)

// canonInProcess renders an in-process all-pairs report to comparable bytes:
// the reachability matrix plus every path's status, failure message, and
// port history.
func canonInProcess(t *testing.T, rep *verify.AllPairsReport) string {
	t.Helper()
	type pathRow struct {
		ID      int
		Status  string
		FailMsg string
		Ports   []string
	}
	var paths []pathRow
	for _, res := range rep.Results {
		for _, p := range res.Paths {
			row := pathRow{ID: p.ID, Status: p.Status.String(), FailMsg: p.FailMsg}
			for _, h := range p.History() {
				row.Ports = append(row.Ports, h.String())
			}
			paths = append(paths, row)
		}
	}
	b, err := json.Marshal(map[string]any{
		"reachable": rep.Reachable, "counts": rep.PathCount, "paths": paths,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// canonDist renders a distributed all-pairs report to comparable bytes via
// the summaries that crossed the wire.
func canonDist(t *testing.T, rep *verify.AllPairsReport) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"reachable": rep.Reachable, "counts": rep.PathCount, "summaries": rep.Summaries,
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withObs returns opts with a fresh registry and JSONL tracer attached, plus
// the registry and trace path for post-run inspection.
func withObs(t *testing.T, opts core.Options) (core.Options, *obs.Registry, string) {
	t.Helper()
	reg := obs.NewRegistry()
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	tf, err := os.Create(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tf.Close() })
	opts.Obs = obs.New(reg, obs.NewTracer(tf))
	return opts, reg, tracePath
}

// TestObservabilityDoesNotPerturbResults is the inertness property the obs
// package promises: attaching a metrics registry and a span tracer changes
// no result bytes, at any worker count and on both the in-process and
// distributed all-pairs paths. It is the test-suite twin of the CI step that
// diffs symbench -stable output with and without -metrics/-trace-out.
func TestObservabilityDoesNotPerturbResults(t *testing.T) {
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 8, Routes: 12, Seed: 5})
	srcs, targets := d.AllPairs()
	opts := core.Options{MaxHops: 64}

	base, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonInProcess(t, base)

	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			oopts, reg, tracePath := withObs(t, opts)
			rep, err := verify.AllPairsReachability(d.Net, srcs, sefl.NewTCPPacket(), targets, oopts, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonInProcess(t, rep); got != want {
				t.Errorf("results with obs attached differ from baseline\n got: %.300s\nwant: %.300s", got, want)
			}
			// Sanity that observability was actually live, not silently nil:
			// the per-pair counters and at least one span must have landed.
			snap := reg.Snapshot()
			pairs := snap.Counters["verify.pair.delivered"] + snap.Counters["verify.pair.unreachable"]
			if pairs != int64(rep.Pairs()) {
				t.Errorf("verify.pair counters = %d, want %d", pairs, rep.Pairs())
			}
			if info, err := os.Stat(tracePath); err != nil || info.Size() == 0 {
				t.Errorf("trace file empty (err=%v)", err)
			}
		})
	}

	distBase, err := verify.AllPairsReachabilityDist(d.Net, srcs, sefl.NewTCPPacket(), targets, opts, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	distWant := canonDist(t, distBase)
	procsGrid := []int{0, 2}
	if testing.Short() {
		procsGrid = []int{0}
	}
	for _, procs := range procsGrid {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			oopts, _, _ := withObs(t, opts)
			rep, err := verify.AllPairsReachabilityDist(d.Net, srcs, sefl.NewTCPPacket(), targets, oopts, procs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonDist(t, rep); got != distWant {
				t.Errorf("procs=%d with obs differs from procs=0 baseline", procs)
			}
		})
	}
}
