package core_test

import (
	"testing"

	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
)

// TestTrailCountsDistinctNodes pins Result.Trail on the fork-heavy,
// department (MaxHops 64) and backbone datasets: the node table holds exactly
// the distinct nodes of the live trails, far fewer than the materialized
// history entries.
func TestTrailCountsDistinctNodes(t *testing.T) {
	fnet, finj := datasets.ForkHeavy(6, 2, 4)
	d := datasets.NewDepartment(datasets.DepartmentConfig{NumAccessSwitches: 3, HostsPerSwitch: 12, Routes: 20, Seed: 5})
	dsrcs, _ := d.AllPairs()
	bb := datasets.StanfordBackbone(5, 40)
	bsrcs, _ := bb.AllPairs()
	for _, tc := range []struct {
		name   string
		net    *core.Network
		inject core.PortRef
		packet sefl.Instr
		opts   core.Options
	}{
		{"forkheavy", fnet, finj, sefl.NewTCPPacket(), core.Options{MaxHops: 1 << 12}},
		{"department", d.Net, dsrcs[0], sefl.NewTCPPacket(), core.Options{MaxHops: 64}},
		{"backbone", bb.Net, bsrcs[0], sefl.NewIPPacket(), core.Options{}},
	} {
		res, err := core.Run(tc.net, tc.inject, tc.packet, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		entries := 0
		for _, p := range res.Paths {
			entries += p.HistoryLen()
		}
		nodes, tails := res.Trail()
		t.Logf("%s: %d paths, %d trail nodes, %d history entries", tc.name, len(res.Paths), len(nodes), entries)
		if want := core.DistinctTrailNodes(res); len(nodes) != want {
			t.Errorf("%s: %d trail nodes, the live trails share %d distinct nodes", tc.name, len(nodes), want)
		}
		if len(nodes) >= entries || len(tails) != len(res.Paths) {
			t.Errorf("%s: %d nodes for %d history entries, %d tails for %d paths", tc.name, len(nodes), entries, len(tails), len(res.Paths))
		}
	}
}
