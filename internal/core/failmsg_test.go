package core

import (
	"testing"
	"unsafe"

	"symnet/internal/sefl"
)

// failingGuardNet builds one element whose input code constrains IPDst to an
// n-entry egress-style table (10.0.0.0, 10.0.0.1, ...) that no packet from
// failingGuardPacket can satisfy, so every run ends in one failed path whose
// message prints the whole table.
func failingGuardNet(n int) *Network {
	rows := make([]sefl.Cond, n)
	for i := range rows {
		rows[i] = sefl.Eq(sefl.Ref{LV: sefl.IPDst}, sefl.C(0x0A000000+uint64(i)))
	}
	net := NewNetwork()
	e := net.AddElement("egress", "switch", 1, 1)
	e.SetInCode(0, sefl.Seq(
		sefl.Constrain{C: sefl.OrC(rows...)},
		sefl.Forward{Port: 0},
	))
	return net
}

func failingGuardPacket() sefl.Instr {
	return sefl.Seq(
		sefl.NewTCPPacket(),
		sefl.Assign{LV: sefl.IPDst, E: sefl.IP("192.168.0.1")},
	)
}

func runFailingGuard(t *testing.T, net *Network) *Path {
	t.Helper()
	res, err := Run(net, PortRef{Elem: "egress", Port: 0}, failingGuardPacket(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	failed := res.ByStatus(Failed)
	if len(failed) != 1 || len(res.Paths) != 1 {
		t.Fatalf("want exactly one failed path, got %d of %d", len(failed), len(res.Paths))
	}
	return failed[0]
}

// TestConstrainFailMsgMemoized pins the compiled executor's failure-message
// memo: every failing visit of one OpConstrain shares a single rendered
// string, so a failing run costs the same allocations whatever the size of
// the guard it prints.
func TestConstrainFailMsgMemoized(t *testing.T) {
	net := failingGuardNet(64)
	a, b := runFailingGuard(t, net), runFailingGuard(t, net)
	if a.FailMsg != b.FailMsg {
		t.Fatalf("failure messages differ:\n%.200s\n%.200s", a.FailMsg, b.FailMsg)
	}
	if unsafe.StringData(a.FailMsg) != unsafe.StringData(b.FailMsg) {
		t.Error("the second failing visit re-rendered the constraint's failure message")
	}

	allocs := func(n int) float64 {
		net := failingGuardNet(n)
		return testing.AllocsPerRun(10, func() { runFailingGuard(t, net) })
	}
	if small, large := allocs(8), allocs(2048); large > small {
		t.Errorf("failing run allocates %.0f times with a 2048-entry guard vs %.0f with 8: the failure message is rendered per visit", large, small)
	}
}
