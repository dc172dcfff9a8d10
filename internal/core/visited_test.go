package core

import (
	"fmt"
	"testing"

	"symnet/internal/sefl"
)

// forkGrid builds depth fork elements of fan ports each, f<i> output p
// linked to f<i+1> input p, ending in a fan-input sink: fan^depth paths whose
// histories share every node up to their fork points. Two output guards
// fail some of the paths, which must still count the port that killed them.
func forkGrid(t *testing.T, depth, fan int) *Network {
	t.Helper()
	net := NewNetwork()
	ports := make([]int, fan)
	for p := range ports {
		ports[p] = p
	}
	for i := 0; i < depth; i++ {
		e := net.AddElement(fmt.Sprintf("f%d", i), "fork", fan, fan)
		e.SetInCode(WildcardPort, sefl.Fork{Ports: ports})
	}
	net.AddElement("sink", "sink", fan, 0).SetInCode(WildcardPort, sefl.NoOp{})
	for i := 0; i < depth; i++ {
		next := "sink"
		if i+1 < depth {
			next = fmt.Sprintf("f%d", i+1)
		}
		for p := 0; p < fan; p++ {
			net.MustLink(fmt.Sprintf("f%d", i), p, next, p)
		}
	}
	e, _ := net.Element("f1")
	e.SetOutCode(fan-1, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPSrc}, sefl.C(1))})
	e, _ = net.Element("f2")
	e.SetOutCode(fan-1, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.IPSrc}, sefl.C(2))})
	return net
}

// TestVisitedPortsWalksSharedTrail pins Result.VisitedPorts against the
// materialized histories: each port reported once, the reported set equal to
// the union of History() over all paths, a history-less path harmless, and
// the walk bounded by the run's trail nodes rather than the histories' total
// length.
func TestVisitedPortsWalksSharedTrail(t *testing.T) {
	res, err := Run(forkGrid(t, 6, 3), PortRef{Elem: "f0", Port: 0}, sefl.NewIPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) < 100 || len(res.ByStatus(Failed)) == 0 || len(res.ByStatus(Delivered)) == 0 {
		t.Fatalf("fixture should fork into delivered and failed paths: %d paths, %d failed",
			len(res.Paths), len(res.ByStatus(Failed)))
	}

	want := make(map[PortRef]bool)
	histTotal := 0
	trailNodes := make(map[*trail[PortRef]]bool)
	for _, p := range res.Paths {
		for _, pr := range p.History() {
			want[pr] = true
		}
		histTotal += p.HistoryLen()
		for n := p.hist; n != nil; n = n.prev {
			trailNodes[n] = true
		}
	}

	ports, steps := res.walkPorts()
	t.Logf("%d paths, %d ports, %d trail nodes, %d walk steps, %d history entries", len(res.Paths), len(ports), len(trailNodes), steps, histTotal)
	got := make(map[PortRef]bool)
	for _, pr := range ports {
		if got[pr] {
			t.Fatalf("port %v reported twice", pr)
		}
		got[pr] = true
	}
	if len(got) != len(want) {
		t.Fatalf("reported %d ports, histories hold %d", len(got), len(want))
	}
	for pr := range want {
		if !got[pr] {
			t.Fatalf("port %v is in a history but was not reported", pr)
		}
	}

	// Every step pushes one input-port node (Stats.Hops counts them); every
	// output-port node is followed by a step or ends a path.
	if pushes := 2*res.Stats.Hops + len(res.Paths); len(trailNodes) > pushes {
		t.Fatalf("paths share %d trail nodes, run pushed at most %d", len(trailNodes), pushes)
	}
	// Each path's walk ends at most one step past its new nodes.
	if steps > len(trailNodes)+len(res.Paths) {
		t.Fatalf("walk took %d steps over %d trail nodes and %d paths", steps, len(trailNodes), len(res.Paths))
	}
	if 3*steps > histTotal {
		t.Fatalf("walk took %d steps against %d history entries: it is not sharing prefixes", steps, histTotal)
	}

	// A path with no history contributes nothing.
	res.Paths = append(res.Paths, &Path{ID: len(res.Paths), Status: Failed})
	again, againSteps := res.walkPorts()
	if len(again) != len(ports) || againSteps != steps {
		t.Fatalf("history-less path changed the walk: %d ports/%d steps, want %d/%d", len(again), againSteps, len(ports), steps)
	}
	empty := &Result{Paths: []*Path{{ID: 0}}}
	if got := empty.VisitedPorts(); len(got) != 0 {
		t.Fatalf("history-less result reported ports %v", got)
	}
}
