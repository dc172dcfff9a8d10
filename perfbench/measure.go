package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed operations and keeps the first few
// failure reasons for standard error.
type tally struct {
	attempted, failed int
	reasons           []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// samples collects one operation's latencies in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// quantile returns the q-quantile by linear interpolation between the
// closest ranks; NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return v[lo] + (v[hi]-v[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

// span is one timed call into the system, recorded by the benchmark around
// the call (no tracing happens inside the program). Parent is 0 for roots.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer still
// times calls (callers need the durations) but records nothing.
type tracer struct {
	on    bool
	mu    sync.Mutex
	spans []span
}

// timer is an open span.
type timer struct {
	tr     *tracer
	id     int
	parent int
	name   string
	start  time.Time
}

// begin opens a span under parent (0 for a root).
func (tr *tracer) begin(name string, parent int) timer {
	t := timer{tr: tr, parent: parent, name: name}
	if tr.on {
		tr.mu.Lock()
		t.id = len(tr.spans) + 1
		tr.spans = append(tr.spans, span{ID: t.id}) // reserve the id
		tr.mu.Unlock()
	}
	t.start = time.Now()
	return t
}

// end closes the span (recorded if the tracer was on when it began) and
// returns its duration.
func (t timer) end() time.Duration {
	now := time.Now()
	if t.id != 0 {
		t.tr.mu.Lock()
		t.tr.spans[t.id-1] = span{ID: t.id, Parent: t.parent, Name: t.name,
			Start: t.start.UnixNano(), End: now.UnixNano()}
		t.tr.mu.Unlock()
	}
	return now.Sub(t.start)
}

// selfTimes sums each span name's self time (duration minus the time its
// children cover) in milliseconds.
func (tr *tracer) selfTimes() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range tr.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range tr.spans {
		out[s.Name] += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// write stores the spans as JSON lines, followed by one line of per-name
// self times.
func (tr *tracer) write(path string) error {
	if !tr.on || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_ms": tr.selfTimes()}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// childPIDs lists the live processes whose parent is pid.
func childPIDs(pid int) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range ents {
		n, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		raw, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue
		}
		// Fields after the parenthesized command: state, ppid, ...
		s := string(raw)
		i := strings.LastIndexByte(s, ')')
		if i < 0 {
			continue
		}
		f := strings.Fields(s[i+1:])
		if len(f) > 1 && f[1] == strconv.Itoa(pid) {
			out = append(out, n)
		}
	}
	return out
}

// running reports whether a measured loop goes on to iteration i: until the
// deadline, and in a traced run for at least one plain and one instrumented
// iteration.
func running(i int, end time.Time, trace bool) bool {
	return time.Now().Before(end) || (trace && i < 2)
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	s := make(samples, len(ds))
	for i, d := range ds {
		s[i] = d.Seconds()
	}
	return s.median()
}
