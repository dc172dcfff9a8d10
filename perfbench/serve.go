package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"time"

	"symnet/internal/churn"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/sefl"
	"symnet/internal/solver"
	"symnet/internal/verify"
)

// serveSpec describes one daemon workload.
type serveSpec struct {
	args      []string // symnetd flags selecting the resident network
	setupReps int      // daemon starts per run; setup_s is their median
	// burstEvery > 0: every n-th iteration posts a 10-delta burst, and
	// op2_p50_ms is the burst's latency to its watch event. 0: no bursts,
	// and op2_p50_ms is the final snapshot restore's latency to its watch
	// event (one full re-verification of the churned tables).
	burstEvery int
	timeout    time.Duration
	stream     func(seed int64) *deltaStream
	// replica builds an in-process copy of the daemon's resident service
	// for the per-module passes (the daemon's own copy lives in another
	// process).
	replica   func() (*churn.Service, *matrixNet)
	layerReps int
}

var serveBackbone = &serveSpec{
	args:       []string{"-network", "backbone", "-heavy"},
	setupReps:  9,
	burstEvery: 10,
	timeout:    10 * time.Second,
	stream: func(seed int64) *deltaStream {
		b := datasets.StanfordBackbone(14, 300)
		return newFIBStream("zone13", b.FIBs["zone13"], "198.18.0.0/15", 200, seed)
	},
	replica:   backboneReplica,
	layerReps: 3,
}

var serveDept = &serveSpec{
	args:      []string{"-network", "department", "-quick"},
	setupReps: 1,
	timeout:   90 * time.Second,
	// The ASA's MAC stays on the uplink: moving it would take every path
	// out of the hop-capped loops this workload exists to measure, and the
	// deltas after it would cost a millisecond instead of seconds.
	stream: func(seed int64) *deltaStream {
		d := datasets.NewDepartment(quickDepartment)
		return newMACStream("asw1", d.MACTables["asw1"], 20, seed, sefl.MACToNumber(d.ASAMac))
	},
	replica:   departmentReplica,
	layerReps: 1,
}

// quickDepartment is symnetd's -network department -quick topology.
var quickDepartment = datasets.DepartmentConfig{NumAccessSwitches: 4, HostsPerSwitch: 40, Routes: 60, Seed: 11}

// backboneReplica mirrors symnetd's -network backbone -heavy service: the
// injected IP packet is pinned to zone0's /16.
func backboneReplica() (*churn.Service, *matrixNet) {
	b := datasets.StanfordBackbone(14, 300)
	srcs, tgts := b.AllPairs()
	packet := sefl.Seq(sefl.NewIPPacket(),
		sefl.Constrain{C: sefl.Prefix{E: sefl.Ref{LV: sefl.IPDst}, Value: sefl.IPToNumber("10.0.0.0"), Len: 16}})
	svc := churn.NewService(churn.Config{Net: b.Net, Sources: srcs, Targets: tgts, Packet: packet})
	for name, fib := range b.FIBs {
		svc.RegisterRouter(name, fib)
	}
	return svc, &matrixNet{name: "backbone", net: b.Net, sources: srcs, targets: tgts, packet: packet}
}

// departmentReplica mirrors symnetd's -network department -quick service:
// a TCP packet addressed to the ASA at layer 2, default hop cap.
func departmentReplica() (*churn.Service, *matrixNet) {
	d := datasets.NewDepartment(quickDepartment)
	srcs, tgts := d.AllPairs()
	packet := sefl.Seq(sefl.NewTCPPacket(),
		sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(sefl.MACToNumber(d.ASAMac), sefl.MACWidth))})
	svc := churn.NewService(churn.Config{Net: d.Net, Sources: srcs, Targets: tgts, Packet: packet})
	for name, tbl := range d.MACTables {
		svc.RegisterSwitch(name, tbl)
	}
	for name, fib := range d.FIBs {
		svc.RegisterRouter(name, fib)
	}
	return svc, &matrixNet{name: "department", net: d.Net, sources: srcs, targets: tgts, packet: packet}
}

// lockedBuffer collects a child's standard error.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// daemon is one running symnetd.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr *lockedBuffer
	exited chan struct{}
	err    error // set before exited closes
}

// freeAddr picks a loopback port no one is listening on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startDaemon starts symnetd and returns once /healthz answers, which the
// daemon does only after its resident report is published.
func startDaemon(bin string, args []string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		d := &daemon{base: "http://" + addr, stderr: &lockedBuffer{}, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, append(append([]string(nil), args...), "-listen", addr)...)
		d.cmd.Stderr = d.stderr
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start symnetd: %w", err)
		}
		go func() {
			d.err = d.cmd.Wait()
			close(d.exited)
		}()
		if lastErr = d.waitHealthy(3 * time.Minute); lastErr == nil {
			return d, nil
		}
		d.stop()
		if !strings.Contains(d.stderr.String(), "address already in use") {
			break
		}
	}
	return nil, lastErr
}

func (d *daemon) waitHealthy(limit time.Duration) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	for end := time.Now().Add(limit); time.Now().Before(end); {
		select {
		case <-d.exited:
			return fmt.Errorf("symnetd exited before serving (%v): %s", d.err, tail(d.stderr.String()))
		default:
		}
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("symnetd not healthy after %v", limit)
}

// stop kills the daemon and waits for it to exit.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

func tail(s string) string {
	if len(s) > 2000 {
		s = s[len(s)-2000:]
	}
	return s
}

// watchEvent is one SSE version event and when it arrived.
type watchEvent struct {
	version uint64
	at      time.Time
	resync  bool
}

// watcher holds the /v1/watch SSE connection.
type watcher struct {
	events chan watchEvent
	cancel context.CancelFunc
	done   chan struct{}
}

func openWatch(base string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/watch", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open watch: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("open watch: status %d", resp.StatusCode)
	}
	// The client consumes each event before posting the next delta, so at
	// most a handful are ever queued; the buffer only absorbs the final
	// restore's event while the client is still reading the report.
	w := &watcher{events: make(chan watchEvent, 64), cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(w.done)
		defer close(w.events)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 64<<20)
		kind := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				kind = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				at := time.Now()
				ev := watchEvent{at: at, resync: kind != "version"}
				var body churn.VersionEvent
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &body); err == nil {
					ev.version = body.Version
				}
				select {
				case w.events <- ev:
				case <-ctx.Done():
					return
				}
			case line == "":
				kind = ""
			}
		}
	}()
	return w, nil
}

func (w *watcher) close() {
	w.cancel()
	<-w.done
}

// deltaReply is the part of the POST /v1/delta response the client reads.
type deltaReply struct {
	Version   uint64 `json:"version"`
	Applied   int    `json:"applied"`
	Rejected  int    `json:"rejected"`
	Malformed int    `json:"malformed"`
	Batch     *struct {
		Deltas          int          `json:"deltas"`
		Action          churn.Action `json:"action"`
		DirtySources    int          `json:"dirty_sources"`
		CellsReverified int          `json:"cells_reverified"`
		Transitions     int          `json:"transitions"`
		Elapsed         int64        `json:"elapsed_ns"`
	} `json:"batch"`
}

// reportBody is the comparable part of a GET /v1/report response.
type reportBody struct {
	Version   uint64   `json:"version"`
	Sources   []string `json:"sources"`
	Targets   []string `json:"targets"`
	Reachable [][]bool `json:"reachable"`
	PathCount [][]int  `json:"path_count"`
	Cells     int      `json:"cells"`
}

// client is the benchmark's one keep-alive connection to the daemon.
type client struct {
	base string
	http *http.Client
}

func (c *client) do(method, path, ctype string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return b, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, tail(string(b)))
	}
	return b, nil
}

func (c *client) report(since uint64) (*reportBody, int, error) {
	b, err := c.do(http.MethodGet, fmt.Sprintf("/v1/report?version=%d", since), "", nil, http.StatusOK)
	if err != nil {
		return nil, 0, err
	}
	var r reportBody
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, 0, fmt.Errorf("decode report: %w", err)
	}
	return &r, len(b), nil
}

// iteration is one measured delta submission.
type iteration struct {
	burst     bool
	reply     deltaReply
	post      time.Duration // POST round trip
	toWatch   time.Duration // POST sent -> watch event received
	watchLag  time.Duration // POST reply received -> watch event received
	read      time.Duration // GET /v1/report at the new version
	traced    bool
	reportLen int
}

// runServe drives one symnetd workload: each iteration POSTs the next delta
// (or burst), waits for the watch event carrying the returned version, then
// reads the report at that version.
func runServe(cfg *config, spec *serveSpec) (*result, error) {
	tr := &tracer{}
	var setups []time.Duration
	var d *daemon
	for i := 0; i < spec.setupReps; i++ {
		if d != nil {
			d.stop()
		}
		t := tr.begin("setup", 0)
		var err error
		if d, err = startDaemon(cfg.symnetd, spec.args); err != nil {
			return nil, err
		}
		setups = append(setups, t.end())
	}
	defer d.stop()

	w, err := openWatch(d.base)
	if err != nil {
		return nil, err
	}
	defer w.close()
	c := &client{base: d.base, http: &http.Client{Timeout: spec.timeout,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	first, _, err := c.report(0)
	if err != nil {
		return nil, err
	}
	version := first.Version

	var tl tally
	stream := spec.stream(cfg.seed)
	var iters []iteration
	// nextEvent waits for the watch event of version v; any other event is
	// a failure (every version must produce exactly one event, in order).
	nextEvent := func(v uint64) (watchEvent, error) {
		select {
		case ev, ok := <-w.events:
			switch {
			case !ok:
				return ev, fmt.Errorf("watch stream closed")
			case ev.resync:
				return ev, fmt.Errorf("watch resync at version %d", v)
			case ev.version != v:
				return ev, fmt.Errorf("watch event for version %d, want %d", ev.version, v)
			}
			return ev, nil
		case <-time.After(spec.timeout):
			return watchEvent{}, fmt.Errorf("no watch event for version %d", v)
		}
	}
	step := func(n int) {
		it := iteration{burst: n > 1, traced: tr.on}
		ds, err := stream.next(n)
		if err != nil {
			tl.fail("delta stream: %v", err)
			return
		}
		var body bytes.Buffer
		if err := churn.EncodeDeltas(&body, ds); err != nil {
			tl.fail("encode deltas: %v", err)
			return
		}
		root := tr.begin("symnetd.delta", 0)
		post := tr.begin("symnetd.post", root.id)
		raw, err := c.do(http.MethodPost, "/v1/delta", "application/x-ndjson", body.Bytes(), http.StatusOK)
		it.post = post.end()
		if err == nil {
			err = json.Unmarshal(raw, &it.reply)
		}
		if err != nil {
			root.end()
			tl.fail("post delta: %v", err)
			return
		}
		r := it.reply
		if r.Applied != n || r.Rejected != 0 || r.Malformed != 0 || r.Batch == nil || r.Version != version+1 {
			root.end()
			tl.fail("delta reply %s", tail(string(raw)))
			return
		}
		version = r.Version
		wait := tr.begin("symnetd.watch", root.id)
		ev, err := nextEvent(version)
		wait.end()
		root.end()
		if err != nil {
			tl.fail("%v", err)
			return
		}
		it.toWatch = ev.at.Sub(root.start)
		it.watchLag = ev.at.Sub(root.start.Add(it.post))
		t := tr.begin("symnetd.report", 0)
		rep, size, err := c.report(version - 1)
		it.read = t.end()
		if err == nil && rep.Version != version {
			err = fmt.Errorf("report at version %d, want %d", rep.Version, version)
		}
		if err != nil {
			tl.fail("read report: %v", err)
			return
		}
		it.reportLen = size
		iters = append(iters, it)
		tl.ok()
	}
	// A traced run records spans on every other iteration, so traced and
	// untraced iterations see the same host conditions.
	for i, end := 0, time.Now().Add(cfg.seconds); running(i, end, cfg.trace) && tl.failed == 0; i++ {
		tr.on = cfg.trace && i%2 == 1
		if spec.burstEvery > 0 && i%spec.burstEvery == spec.burstEvery-1 {
			step(10)
		} else {
			step(1)
		}
	}
	tr.on = cfg.trace
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}

	// Final check: the served report must equal a from-scratch verification
	// of the final tables, which POST /v1/snapshot performs under the
	// daemon's own options; the restore must publish exactly one event.
	restore, err := finalCheck(c, w, nextEvent, &version)
	if err != nil {
		tl.fail("final report check: %v", err)
	} else {
		tl.ok()
	}
	w.close()
	d.stop()

	out := map[string]metric{}
	if !cfg.trace {
		var single, burst samples
		for _, it := range iters {
			if it.burst {
				burst = append(burst, ms(it.toWatch))
			} else {
				single = append(single, ms(it.toWatch))
			}
		}
		out["setup_s"] = metric{medianSeconds(setups), "s"}
		out["peak_rss_mb"] = metric{rss, "MB"}
		out["op_p50_ms"] = metric{single.median(), "ms"}
		if spec.burstEvery > 0 {
			out["op2_p50_ms"] = metric{burst.median(), "ms"}
		} else {
			out["op2_p50_ms"] = metric{ms(restore), "ms"}
		}
		return finish(cfg, tr, &tl, out), nil
	}
	serveLayers(out, iters)
	if err := replicaLayers(out, tr, spec, cfg); err != nil {
		tl.fail("in-process replica: %v", err)
	}
	idle(out, "dist-pool")
	return finish(cfg, tr, &tl, out), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finalCheck reads the final report, restores the daemon's own snapshot
// (a full re-verification of the current tables), and compares. It returns
// the time from the restore POST to its watch event.
func finalCheck(c *client, w *watcher, nextEvent func(uint64) (watchEvent, error), version *uint64) (time.Duration, error) {
	before, _, err := c.report(*version - 1)
	if err != nil {
		return 0, err
	}
	snap, err := c.do(http.MethodGet, "/v1/snapshot", "", nil, http.StatusOK)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.do(http.MethodPost, "/v1/snapshot", "application/json", snap, http.StatusOK); err != nil {
		return 0, err
	}
	*version++
	ev, err := nextEvent(*version)
	if err != nil {
		return 0, err
	}
	after, _, err := c.report(*version - 1)
	if err != nil {
		return 0, err
	}
	if after.Version != *version {
		return 0, fmt.Errorf("report at version %d after restore, want %d", after.Version, *version)
	}
	before.Version = after.Version
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if !bytes.Equal(a, b) {
		return 0, fmt.Errorf("served report differs from the re-verified one")
	}
	select {
	case ev, ok := <-w.events:
		if ok {
			return 0, fmt.Errorf("unexpected watch event for version %d", ev.version)
		}
	case <-time.After(100 * time.Millisecond):
	}
	return ev.at.Sub(start), nil
}

// serveLayers derives the churn and symnetd module metrics from the delta
// replies and client-side timings.
func serveLayers(out map[string]metric, iters []iteration) {
	var absorb, overhead, lag, burstSize, reads samples
	var dirty, cells, trans, patched, n float64
	var untraced, traced samples
	reportLen := 0
	for _, it := range iters {
		b := it.reply.Batch
		reportLen = it.reportLen
		reads.add(it.read)
		if it.burst {
			burstSize = append(burstSize, float64(b.Deltas))
			continue
		}
		n++
		absorb = append(absorb, float64(b.Elapsed)/1e6)
		overhead = append(overhead, ms(it.post)-float64(b.Elapsed)/1e6)
		lag = append(lag, ms(it.watchLag))
		dirty += float64(b.DirtySources)
		cells += float64(b.CellsReverified)
		trans += float64(b.Transitions)
		if b.Action == churn.ActionPatched {
			patched++
		}
		if it.traced {
			traced = append(traced, ms(it.toWatch))
		} else {
			untraced = append(untraced, ms(it.toWatch))
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	if len(burstSize) == 0 {
		burstSize = samples{1}
	}
	out["churn.absorb_p50_ms"] = metric{absorb.median(), "ms"}
	out["churn.batch_deltas_p50"] = metric{burstSize.median(), "count"}
	out["churn.dirty_sources_per_delta"] = metric{div(dirty, n), "count"}
	out["churn.cells_reverified_per_delta"] = metric{div(cells, n), "count"}
	out["churn.useful_share"] = metric{div(trans, cells), "ratio"}
	out["churn.patched_share"] = metric{div(patched, n), "ratio"}
	out["symnetd.post_overhead_p50_ms"] = metric{overhead.median(), "ms"}
	out["symnetd.watch_lag_p50_ms"] = metric{lag.median(), "ms"}
	out["symnetd.report_bytes"] = metric{float64(reportLen), "B"}
	out["symnetd.report_read_p50_ms"] = metric{reads.median(), "ms"}
	out["obs.trace_overhead_share"] = metric{div(traced.median(), untraced.median()) - 1, "ratio"}
}

// replicaLayers times Service.Init on an in-process copy of the daemon's
// service, split into exploration (verify.AllPairsReachability) and
// indexing (the rest), plus the core/solver/verify/dist passes.
func replicaLayers(out map[string]metric, tr *tracer, spec *serveSpec, cfg *config) error {
	ls := &layerStats{}
	var inits, explores []time.Duration
	var m *matrixNet
	for i := 0; i < spec.layerReps; i++ {
		c0, ns0 := compileCounters()
		svc, _ := spec.replica()
		t := tr.begin("churn.init", 0)
		if err := svc.Init(); err != nil {
			return err
		}
		inits = append(inits, t.end())
		c1, ns1 := compileCounters()
		ls.compileCount, ls.compileMs = c1-c0, float64(ns1-ns0)/1e6

		_, m = spec.replica()
		memo := solver.NewSatCache()
		memo.EnableTracking()
		t = tr.begin("verify.allpairs."+m.name, 0)
		if _, err := verify.AllPairsReachability(m.net, m.sources, m.packet, m.targets,
			core.Options{SatMemo: memo}, 0); err != nil {
			return err
		}
		explores = append(explores, t.end())
	}
	explore, init := medianSeconds(explores), medianSeconds(inits)
	out["churn.init_explore_s"] = metric{explore, "s"}
	out["churn.init_index_s"] = metric{init - explore, "s"}
	if err := ls.layerPasses(tr, rand.New(rand.NewSource(cfg.seed)), m, spec.layerReps, true); err != nil {
		return err
	}
	ls.put(out)
	return nil
}
