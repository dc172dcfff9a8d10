package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"symnet/internal/dist"
)

func TestMain(m *testing.M) {
	dist.MaybeWorker() // the fleet workload re-executes this test binary
	os.Exit(m.Run())
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

func TestSpecMatchesCode(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, code has %d", len(s.Workloads), len(workloads))
	}
	for _, w := range s.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s not implemented", w.Name)
		}
	}
	check := func(kind string, list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}, code map[string]string) {
		if len(list) != len(code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(list), len(code))
		}
		for _, m := range list {
			if code[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, code %q", kind, m.Name, m.Unit, code[m.Name])
			}
		}
	}
	check("end_to_end", s.EndToEnd, endToEnd)
	check("per_layer", s.PerLayer, perLayer)
}

func buildSymnetd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "symnetd")
	out, err := exec.Command("go", "build", "-o", bin, "symnet/cmd/symnetd").CombinedOutput()
	if err != nil {
		t.Fatalf("build symnetd: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced, and
// checks that each prints every metric of its kind with the right unit.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	symnetd := buildSymnetd(t)
	for _, w := range s.Workloads {
		for _, trace := range []bool{false, true} {
			if testing.Short() && w.Name == "serve-dept" {
				continue // about a minute per run
			}
			cfg := &config{workload: w.Name, seed: 7, seconds: time.Second, trace: trace,
				symnetd: symnetd, expected: "expected/allpairs.json", spans: t.TempDir()}
			res, err := workloads[w.Name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, name, m, unit)
				}
			}
		}
	}
}

// TestWrongExpectedMatrixFails corrupts one recorded cell and checks that
// the run reports the mismatch.
func TestWrongExpectedMatrixFails(t *testing.T) {
	exp, err := loadExpected("expected/allpairs.json")
	if err != nil {
		t.Fatal(err)
	}
	exp["department"].Reachable[3][5] = !exp["department"].Reachable[3][5]
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wrong.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"allpairs", "fleet"} {
		res, err := workloads[w](&config{workload: w, seed: 3, seconds: time.Second, expected: path})
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: wrong expected matrix not detected: %+v", w, res)
		}
	}
}
