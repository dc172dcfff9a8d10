package churn

// Index differential: the service's dependency index, built from each
// source's distinct-port footprint, must hold exactly the sets that folding
// every path's materialized History() from a from-scratch run produces —
// the oracle below — after Init, after every delta of a stream and its
// undo, and over a TCP fleet as well as the local pool.

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/models"
	"symnet/internal/sched"
	"symnet/internal/sefl"
	"symnet/internal/tables"
)

// historyDeps is one source's dependencies as read off its materialized
// path histories: the output ports and the elements any path visited.
type historyDeps struct {
	ports map[core.PortRef]bool
	elems map[string]bool
}

func foldHistories(res *core.Result) historyDeps {
	// A department source materializes ~40M history entries; spread the
	// paths over the CPUs.
	parts := make([]map[core.PortRef]bool, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			visited := make(map[core.PortRef]bool)
			for k := w; k < len(res.Paths); k += len(parts) {
				for _, pr := range res.Paths[k].History() {
					visited[pr] = true
				}
			}
			parts[w] = visited
		}()
	}
	wg.Wait()
	d := historyDeps{ports: make(map[core.PortRef]bool), elems: make(map[string]bool)}
	for _, visited := range parts {
		for pr := range visited {
			if pr.Out {
				d.ports[pr] = true
			}
			d.elems[pr.Elem] = true
		}
	}
	return d
}

// historyOracle is the index's reference: it re-runs sources from scratch
// with sched.RunBatch on the service's current network and folds every
// path's materialized History(), sharing no code with the trail node table
// the service indexes from. Published summaries are immutable and an
// unchanged source keeps its summary across versions, so folds are memoized
// by summary pointer: each check re-runs only the sources the service
// re-verified since the last one.
type historyOracle map[*dist.Summary]historyDeps

// check compares svc's index with the oracle's per-port and per-element
// source sets at svc's current version.
func (o historyOracle) check(t *testing.T, label string, svc *Service) {
	t.Helper()
	sums := svc.Report().Summaries
	var stale []int
	var jobs []sched.Job
	opts := svc.cfg.Opts
	opts.SatMemo = nil
	for i, sum := range sums {
		if _, ok := o[sum]; !ok {
			src := svc.cfg.Sources[i]
			stale = append(stale, i)
			jobs = append(jobs, sched.Job{Name: src.String(), Inject: src, Packet: svc.cfg.Packet, Opts: opts})
		}
	}
	for k, jr := range sched.RunBatch(svc.cfg.Net, jobs, 0) {
		if jr.Err != nil {
			t.Fatalf("%s: from-scratch run of %s: %v", label, jr.Name, jr.Err)
		}
		o[sums[stale[k]]] = foldHistories(jr.Result)
	}
	wantPorts := make(map[core.PortRef][]int)
	wantElems := make(map[string][]int)
	for i, sum := range sums {
		d := o[sum]
		for pr := range d.ports {
			wantPorts[pr] = append(wantPorts[pr], i)
		}
		for e := range d.elems {
			wantElems[e] = append(wantElems[e], i)
		}
	}
	gotPorts := make(map[core.PortRef][]int)
	for pr, set := range svc.visited {
		if m := set.members(); len(m) > 0 {
			gotPorts[pr] = m
		}
	}
	gotElems := make(map[string][]int)
	for e, set := range svc.visitedElem {
		if m := set.members(); len(m) > 0 {
			gotElems[e] = m
		}
	}
	if !reflect.DeepEqual(gotPorts, wantPorts) {
		t.Fatalf("%s: per-port source sets differ from the history oracle:\n got %v\nwant %v", label, gotPorts, wantPorts)
	}
	if !reflect.DeepEqual(gotElems, wantElems) {
		t.Fatalf("%s: per-element source sets differ from the history oracle:\n got %v\nwant %v", label, gotElems, wantElems)
	}
}

// undoMAC returns the deltas that revert ds, in application order, given the
// switch's table before ds (MACs unique, as GenMACDeltas keeps them).
func undoMAC(tbl tables.MACTable, ds []Delta) []Delta {
	port := make(map[string]int, len(tbl))
	for _, e := range tbl {
		port[sefl.NumberToMAC(e.MAC)] = e.Port
	}
	undo := make([]Delta, 0, len(ds))
	for _, d := range ds {
		u := d
		switch d.Op {
		case OpInsert:
			u.Op, u.Port = OpDelete, 0
			port[d.MAC] = d.Port
		case OpModify:
			u.Port = port[d.MAC]
			port[d.MAC] = d.Port
		case OpDelete:
			u.Op, u.Port = OpInsert, port[d.MAC]
			delete(port, d.MAC)
		}
		undo = append(undo, u)
	}
	for i, j := 0, len(undo)-1; i < j; i, j = i+1, j-1 {
		undo[i], undo[j] = undo[j], undo[i]
	}
	return undo
}

// newDeptService serves the department config symnetd serves for
// `-network department -quick`: every switch and router modeled Egress from
// its table, the TCP packet pinned to the ASA's MAC, zero options bar the
// worker count.
func newDeptService(t testing.TB) (*Service, *datasets.Department) {
	t.Helper()
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 11})
	sources, targets := d.AllPairs()
	svc := NewService(Config{
		Net:     d.Net,
		Sources: sources,
		Targets: targets,
		Packet: sefl.Seq(
			sefl.NewTCPPacket(),
			sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))},
		),
		Opts: core.Options{Workers: 2},
	})
	for name, fib := range d.FIBs {
		e, _ := d.Net.Element(name)
		if err := models.Router(e, fib, models.Egress); err != nil {
			t.Fatal(err)
		}
		svc.RegisterRouter(name, fib)
	}
	for name, tbl := range d.MACTables {
		e, _ := d.Net.Element(name)
		if err := models.Switch(e, tbl, models.Egress); err != nil {
			t.Fatal(err)
		}
		svc.RegisterSwitch(name, tbl)
	}
	return svc, d
}

// TestIndexMatchesHistoryOracleDepartment pins the index on the daemon's
// department config, whose hop-capped loop paths make the materialized
// histories over a thousand times longer than the distinct trail: after
// Init, and after each delta of an asw1 MAC stream and its undo. The stream
// reshapes asw1's source footprint, so each step also exercises the
// footprint-based drop of the source's old entries.
func TestIndexMatchesHistoryOracleDepartment(t *testing.T) {
	svc, d := newDeptService(t)
	if err := svc.Init(); err != nil {
		t.Fatal(err)
	}
	oracle := make(historyOracle)
	oracle.check(t, "init", svc)

	// Seed 179 deletes asw1's ASA entry first, which empties its uplink
	// port: the model rebuilds and asw1's source footprint collapses to the
	// access layer, until the undo's re-insert restores it.
	ds, err := GenMACDeltas("asw1", d.MACTables["asw1"], 2, 179)
	if err != nil {
		t.Fatal(err)
	}
	src := -1
	for i, s := range svc.cfg.Sources {
		if s.Elem == "asw1" {
			src = i
		}
	}
	full := len(svc.footprint[src])
	stream := append(ds, undoMAC(d.MACTables["asw1"], ds)...)
	for k, delta := range stream {
		res, err := svc.Apply(delta)
		if err != nil {
			t.Fatalf("delta %d (%s): %v", k, delta, err)
		}
		oracle.check(t, fmt.Sprintf("delta %d (%s, %s, %d dirty)", k, delta, res.Action, res.DirtySources), svc)
		if k == 0 && (res.Action != ActionRebuilt || len(svc.footprint[src]) >= full) {
			t.Fatalf("ASA delete: action %s, footprint %d ports (was %d); want a rebuild that shrinks it", res.Action, len(svc.footprint[src]), full)
		}
	}
	if len(svc.footprint[src]) != full {
		t.Fatalf("undo left asw1's footprint at %d ports, want %d", len(svc.footprint[src]), full)
	}
	if got, _ := svc.CurrentMACTable("asw1"); !reflect.DeepEqual(got.ByPort(), d.MACTables["asw1"].ByPort()) {
		t.Fatalf("undo did not restore asw1's table")
	}
}

// TestIndexMatchesHistoryOracleRunner pins the index built from summaries
// that crossed a TCP connection (a dist.Pool fleet) next to the default
// local pool on the quick star network, delta for delta, both against the
// from-scratch oracle.
func TestIndexMatchesHistoryOracleRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("opens TCP sessions")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go dist.ServeListener(ln)
	pool, err := dist.NewPool(dist.Config{Workers: []string{ln.Addr().String()}, WorkersPerProc: 2, ShareSat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	asw, agg := starTables()
	var sources []core.PortRef
	var targets []string
	for k := 0; k < starAsws; k++ {
		sources = append(sources, core.PortRef{Elem: fmt.Sprintf("asw%d", k), Port: 1})
		targets = append(targets, fmt.Sprintf("hsink%d", k))
	}
	targets = append(targets, "up")
	mk := func(runner *dist.Pool) *Service {
		svc := NewService(Config{
			Net:     buildStarNet(t, asw, agg),
			Sources: sources,
			Targets: targets,
			Packet: sefl.Seq(
				sefl.NewTCPPacket(),
				sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(starUpMAC, sefl.MACWidth))},
			),
			Opts:   core.Options{Workers: 2},
			Runner: runner,
		})
		for name, tbl := range asw {
			svc.RegisterSwitch(name, tbl)
		}
		svc.RegisterSwitch("agg", agg)
		if err := svc.Init(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	remote, local := mk(pool), mk(nil)
	oracle := make(historyOracle)
	oracle.check(t, "init: fleet", remote)
	oracle.check(t, "init: local", local)

	ds, err := GenMACDeltas("asw1", asw["asw1"], 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	ds = append(ds, Delta{Elem: "agg", Op: OpDelete, MAC: sefl.NumberToMAC(starUpMAC)})
	for k, delta := range ds {
		for _, svc := range []*Service{remote, local} {
			if _, err := svc.Apply(delta); err != nil {
				t.Fatalf("delta %d (%s): %v", k, delta, err)
			}
		}
		oracle.check(t, fmt.Sprintf("delta %d (%s): fleet", k, delta), remote)
		oracle.check(t, fmt.Sprintf("delta %d (%s): local", k, delta), local)
	}
}
