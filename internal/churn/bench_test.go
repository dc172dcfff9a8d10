package churn

import (
	"testing"

	"symnet/internal/sefl"
)

// BenchmarkServiceInit measures initial verification plus dependency
// indexing on symnetd's department -quick config (41,080 hop-capped paths).
func BenchmarkServiceInit(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		svc, _ := newDeptService(b)
		b.StartTimer()
		if err := svc.Init(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceApplyMAC measures absorbing one MAC delta on the same
// config: a host entry on asw1 moves between two host ports and back, so each
// op patches one guard pair and re-verifies asw1's source.
func BenchmarkServiceApplyMAC(b *testing.B) {
	svc, d := newDeptService(b)
	if err := svc.Init(); err != nil {
		b.Fatal(err)
	}
	host := d.MACTables["asw1"][0]
	mac := sefl.NumberToMAC(host.MAC)
	other := host.Port%4 + 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		port := other
		if i%2 == 1 {
			port = host.Port
		}
		if _, err := svc.Apply(Delta{Elem: "asw1", Op: OpModify, MAC: mac, Port: port}); err != nil {
			b.Fatal(err)
		}
	}
}
