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

// TestTrailWalksSharedTrail pins Result.Trail against the live trails and
// the materialized histories: each distinct trail node numbered once, every
// Prev pointing at an earlier node, every path's history rebuilt exactly
// from its tail, a history-less path harmless, and the walk bounded by the
// run's trail nodes plus its paths rather than the histories' total length.
func TestTrailWalksSharedTrail(t *testing.T) {
	res, err := Run(forkGrid(t, 6, 3), PortRef{Elem: "f0", Port: 0}, sefl.NewIPPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) < 100 || len(res.ByStatus(Failed)) == 0 || len(res.ByStatus(Delivered)) == 0 {
		t.Fatalf("fixture should fork into delivered and failed paths: %d paths, %d failed",
			len(res.Paths), len(res.ByStatus(Failed)))
	}

	histTotal := 0
	trailNodes := make(map[*trail[PortRef]]bool)
	for _, p := range res.Paths {
		histTotal += p.HistoryLen()
		for n := p.hist; n != nil; n = n.prev {
			trailNodes[n] = true
		}
	}

	nodes, tails, steps := res.walkTrail()
	t.Logf("%d paths, %d trail nodes, %d numbered, %d walk steps, %d history entries", len(res.Paths), len(trailNodes), len(nodes), steps, histTotal)
	if len(nodes) != len(trailNodes) {
		t.Fatalf("numbered %d nodes, the paths share %d distinct trail nodes", len(nodes), len(trailNodes))
	}
	for k, n := range nodes {
		if n.Prev < -1 || n.Prev >= int32(k) {
			t.Fatalf("node %d has prev %d: ancestors must come first", k, n.Prev)
		}
	}
	if len(tails) != len(res.Paths) {
		t.Fatalf("%d tails for %d paths", len(tails), len(res.Paths))
	}
	for i, p := range res.Paths {
		var rev []PortRef
		for k := tails[i]; k >= 0; k = nodes[k].Prev {
			rev = append(rev, nodes[k].Port)
		}
		want := p.History()
		if len(rev) != len(want) {
			t.Fatalf("path %d: trail holds %d visits, history %d", i, len(rev), len(want))
		}
		for j := range want {
			if rev[len(rev)-1-j] != want[j] {
				t.Fatalf("path %d visit %d: trail %v, history %v", i, j, rev[len(rev)-1-j], want[j])
			}
		}
	}

	// Every step pushes one input-port node (Stats.Hops counts them); every
	// output-port node is followed by a step or ends a path.
	if pushes := 2*res.Stats.Hops + len(res.Paths); len(trailNodes) > pushes {
		t.Fatalf("paths share %d trail nodes, run pushed at most %d", len(trailNodes), pushes)
	}
	// Each path's walk ends at most one step past its new nodes.
	if steps > len(nodes)+len(res.Paths) {
		t.Fatalf("walk took %d steps over %d trail nodes and %d paths", steps, len(nodes), len(res.Paths))
	}
	if 3*steps > histTotal {
		t.Fatalf("walk took %d steps against %d history entries: it is not sharing prefixes", steps, histTotal)
	}

	// A path with no history contributes nothing and gets tail -1.
	res.Paths = append(res.Paths, &Path{ID: len(res.Paths), Status: Failed})
	again, againTails, againSteps := res.walkTrail()
	if len(again) != len(nodes) || againSteps != steps || againTails[len(againTails)-1] != -1 {
		t.Fatalf("history-less path changed the walk: %d nodes/%d steps/tail %d, want %d/%d/-1",
			len(again), againSteps, againTails[len(againTails)-1], len(nodes), steps)
	}
	empty := &Result{Paths: []*Path{{ID: 0}}}
	if n, tl := empty.Trail(); len(n) != 0 || len(tl) != 1 || tl[0] != -1 {
		t.Fatalf("history-less result: nodes %v, tails %v", n, tl)
	}
}
