package core

// Regression tests for the cache invalidation contract: SetInCode and
// SetOutCode must drop the compiled program for the rebound port, or a stale
// program would keep executing the old code after a rebind.

import (
	"testing"

	"symnet/internal/sefl"
)

func programCacheFixture() (*Network, *Element) {
	net := NewNetwork()
	e := net.AddElement("dut", "dut", 2, 2)
	e.SetInCode(0, sefl.Forward{Port: 0})
	e.SetOutCode(1, sefl.NoOp{})
	return net, e
}

// populate compiles one port, returning the cached program.
func populate(t *testing.T, e *Element, port int, out bool) any {
	t.Helper()
	if _, ok := e.progFor(port, out); !ok {
		t.Fatalf("no code on port %d out=%v", port, out)
	}
	pv, _ := e.progs.Load(progKey{out: out, port: port})
	if pv == nil {
		t.Fatalf("cache not populated on port %d out=%v", port, out)
	}
	return pv
}

func TestSetInCodeInvalidatesProgram(t *testing.T) {
	_, e := programCacheFixture()
	populate(t, e, 0, false)

	e.SetInCode(0, sefl.Forward{Port: 1})
	if _, ok := e.progs.Load(progKey{out: false, port: 0}); ok {
		t.Error("SetInCode left the compiled program cached")
	}

	// The rebound port must recompile to the new code.
	p, _ := e.progFor(0, false)
	last := p.Ops[len(p.Ops)-1]
	if last.Port != 1 {
		t.Errorf("recompiled program forwards to %d, want 1 (the new code)", last.Port)
	}
}

func TestSetOutCodeInvalidatesProgram(t *testing.T) {
	_, e := programCacheFixture()
	pv := populate(t, e, 1, true)

	e.SetOutCode(1, sefl.Constrain{C: sefl.CBool(true)})
	if _, ok := e.progs.Load(progKey{out: true, port: 1}); ok {
		t.Error("SetOutCode left the compiled program cached")
	}
	if populate(t, e, 1, true) == pv {
		t.Error("program not recompiled after SetOutCode")
	}
}

// TestSetCodeInvalidationIsPortScoped pins that rebinding one port leaves
// the other ports' caches (including wildcard-keyed ones) intact.
func TestSetCodeInvalidationIsPortScoped(t *testing.T) {
	_, e := programCacheFixture()
	e.SetInCode(1, sefl.Forward{Port: 0})
	pv0 := populate(t, e, 0, false)
	populate(t, e, 1, false)

	e.SetInCode(1, sefl.Forward{Port: 1})
	if got, _ := e.progs.Load(progKey{out: false, port: 0}); got != pv0 {
		t.Error("rebinding port 1 disturbed port 0's compiled program")
	}
}

// TestProgramRebindBehavioral runs the engine across a rebind: results must
// track the new code, proving no stale program survives end-to-end.
func TestProgramRebindBehavioral(t *testing.T) {
	net := NewNetwork()
	e := net.AddElement("dut", "dut", 1, 2)
	e.SetInCode(0, sefl.Forward{Port: 0})
	a := net.AddElement("a", "sink", 1, 0)
	a.SetInCode(0, sefl.NoOp{})
	b := net.AddElement("b", "sink", 1, 0)
	b.SetInCode(0, sefl.NoOp{})
	net.MustLink("dut", 0, "a", 0)
	net.MustLink("dut", 1, "b", 0)

	opts := Options{MaxHops: 4}
	inj := PortRef{Elem: "dut", Port: 0}
	res, err := Run(net, inj, sefl.NoOp{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DeliveredAt("a", -1)); got != 1 {
		t.Fatalf("before rebind: delivered at a = %d, want 1", got)
	}

	e.SetInCode(0, sefl.Forward{Port: 1})
	res, err = Run(net, inj, sefl.NoOp{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.DeliveredAt("b", -1)); got != 1 {
		t.Fatalf("after rebind: delivered at b = %d, want 1 — program went stale", got)
	}
}
