package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"symnet"
	"symnet/internal/core"
	"symnet/internal/datasets"
	"symnet/internal/dist"
	"symnet/internal/hsa"
	"symnet/internal/obs"
	"symnet/internal/prog"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// matrixNet is one all-pairs query: a network plus its sources, targets,
// injected packet and hop cap.
type matrixNet struct {
	name    string
	net     *core.Network
	sources []core.PortRef
	targets []string
	packet  sefl.Instr
	maxHops int
	hnet    *hsa.Network // backbone only: the HSA copy built from the same FIBs
}

// buildDepartment is the paper-scale department network (15 access
// switches, 6000 MACs, 400 routes): 18 sources x 16 targets.
func buildDepartment() *matrixNet {
	d := datasets.NewDepartment(datasets.DefaultDepartment())
	srcs, tgts := d.AllPairs()
	return &matrixNet{name: "department", net: d.Net, sources: srcs, targets: tgts,
		packet: sefl.NewTCPPacket(), maxHops: 64}
}

// buildBackbone is the Stanford-like backbone at Table 3 scale (14 zones x
// 300 /24s): 14 sources x 14 targets.
func buildBackbone() *matrixNet {
	b := datasets.StanfordBackbone(14, 300)
	srcs, tgts := b.AllPairs()
	return &matrixNet{name: "backbone", net: b.Net, sources: srcs, targets: tgts,
		packet: sefl.NewIPPacket(), hnet: b.HNet}
}

// session compiles a session whose satisfiability memo is fresh, so each
// matrix is a new snapshot rather than a memo replay.
func (m *matrixNet) session(workers int, o *obs.Obs) (*symnet.Session, error) {
	return symnet.Compile(m.net, symnet.Options{MaxHops: m.maxHops, Workers: workers,
		SatMemo: symnet.NewSatMemo(), Obs: o})
}

// permuted returns the sources in a seeded order: every matrix exercises a
// different schedule, and the checks match rows by source name.
func permuted(rng *rand.Rand, srcs []core.PortRef) []core.PortRef {
	out := make([]core.PortRef, len(srcs))
	for i, j := range rng.Perm(len(srcs)) {
		out[i] = srcs[j]
	}
	return out
}

// expectedMatrix is a recorded all-pairs answer.
type expectedMatrix struct {
	Sources   []string `json:"sources"`
	Targets   []string `json:"targets"`
	Reachable [][]bool `json:"reachable"`
	PathCount [][]int  `json:"path_count"`
}

func loadExpected(path string) (map[string]*expectedMatrix, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read expected matrices: %w", err)
	}
	var out map[string]*expectedMatrix
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return out, nil
}

// check compares a computed matrix (rows in srcs order) with the recorded
// one, matching rows by source name. A nil count skips path counts.
func (e *expectedMatrix) check(srcs []core.PortRef, targets []string, reach [][]bool, count [][]int) error {
	if e == nil {
		return fmt.Errorf("no expected matrix")
	}
	if fmt.Sprint(targets) != fmt.Sprint(e.Targets) {
		return fmt.Errorf("targets %v, want %v", targets, e.Targets)
	}
	row := make(map[string]int, len(e.Sources))
	for i, s := range e.Sources {
		row[s] = i
	}
	if len(srcs) != len(e.Sources) || len(reach) != len(srcs) {
		return fmt.Errorf("%d sources, want %d", len(srcs), len(e.Sources))
	}
	for i, s := range srcs {
		r, ok := row[s.String()]
		if !ok {
			return fmt.Errorf("unexpected source %s", s)
		}
		for t := range targets {
			if reach[i][t] != e.Reachable[r][t] {
				return fmt.Errorf("cell %s->%s reachable=%v, want %v", s, targets[t], reach[i][t], e.Reachable[r][t])
			}
			if count != nil && count[i][t] != e.PathCount[r][t] {
				return fmt.Errorf("cell %s->%s has %d paths, want %d", s, targets[t], count[i][t], e.PathCount[r][t])
			}
		}
	}
	return nil
}

// record renders a computed matrix in the expected-file shape.
func record(srcs []core.PortRef, targets []string, reach [][]bool, count [][]int) *expectedMatrix {
	e := &expectedMatrix{Targets: targets, Reachable: reach, PathCount: count}
	for _, s := range srcs {
		e.Sources = append(e.Sources, s.String())
	}
	return e
}

// hsaMatrix answers the backbone's reachability with the independent HSA
// propagator: a target zone is reachable when header space leaves one of
// its unconnected (host) output ports.
func (m *matrixNet) hsaMatrix() [][]bool {
	out := make([][]bool, len(m.sources))
	for i, src := range m.sources {
		out[i] = make([]bool, len(m.targets))
		reached := m.hnet.Reach(hsa.PortRef{Box: src.Elem, Port: src.Port},
			hsa.Space{hsa.NewRegion(hsa.FullCube)}, 32, 64)
		for t, tgt := range m.targets {
			for _, r := range reached {
				if r.At.Out && r.At.Box == tgt {
					out[i][t] = true
					break
				}
			}
		}
	}
	return out
}

// compileCounters reads the compiler's process-wide counters.
func compileCounters() (count int64, ns int64) {
	reg := obs.NewRegistry()
	prog.RegisterMetrics(reg)
	s := reg.Snapshot()
	return s.Counters["prog.compile.count"], s.Counters["prog.compile.ns"]
}

// layerStats are the per-module figures of one matrix, gathered by the
// traced passes.
type layerStats struct {
	coreRun           samples // one core.Run per source, workers 1
	seqPass           samples // sum of the above per pass
	parMatrix         samples // all-cores matrix with instruments on
	paths, failed     int
	history           int
	satChecks, adds   int
	branches          int
	memoHits, memoAll int64
	allocs, bytes     samples
	gcs               samples
	steals            int64
	encode, decode    samples
	setupBytes        int
	compileMs         float64
	compileCount      int64
}

// corePass runs every source once with core.Run at workers 1, sharing one
// fresh memo across the pass as AllPairs does, and records per-source
// time, path census and solver counters.
func (ls *layerStats) corePass(tr *tracer, m *matrixNet) error {
	memo := solver.NewSatCache()
	pass := tr.begin("sched.seq_pass", 0)
	paths, failed, hist := 0, 0, 0
	var st solver.Stats
	for _, src := range m.sources {
		o := core.Options{MaxHops: m.maxHops, SatMemo: memo, Stats: &solver.Stats{}}
		t := tr.begin("core.run", pass.id)
		res, err := core.Run(m.net, src, m.packet, o)
		ls.coreRun.add(t.end())
		if err != nil {
			return fmt.Errorf("core.Run %s: %w", src, err)
		}
		st.Add(*o.Stats)
		for _, p := range res.Paths {
			paths++
			if p.Status == core.Failed {
				failed++
			}
			hist += p.HistoryLen()
		}
	}
	ls.seqPass.add(pass.end())
	ls.paths, ls.failed, ls.history = paths, failed, hist
	ls.satChecks, ls.adds, ls.branches = st.SatChecks, st.Adds, st.Branches
	ls.memoHits, ls.memoAll = memo.Hits(), memo.Hits()+memo.Misses()
	return nil
}

// instrumentedMatrix runs one all-cores matrix with a metrics registry
// attached and allocation counters read around it.
func (ls *layerStats) instrumentedMatrix(tr *tracer, m *matrixNet, srcs []core.PortRef) (*symnet.AllPairsReport, error) {
	reg := obs.NewRegistry()
	sess, err := m.session(-1, obs.New(reg, nil))
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := tr.begin("verify.allpairs."+m.name, 0)
	rep, err := sess.AllPairs(srcs, m.packet, m.targets)
	ls.parMatrix.add(t.end())
	runtime.ReadMemStats(&after)
	ls.allocs = append(ls.allocs, float64(after.Mallocs-before.Mallocs))
	ls.bytes = append(ls.bytes, float64(after.TotalAlloc-before.TotalAlloc))
	ls.gcs = append(ls.gcs, float64(after.NumGC-before.NumGC))
	ls.steals += reg.Snapshot().Counters["sched.steals"]
	return rep, err
}

// codecPass times the dist setup codecs on a network: encode is
// EncodeNetwork + EncodePrograms + gob (the frame encoding), decode is the
// inverse plus DecodeNetwork + InstallPrograms.
func (ls *layerStats) codecPass(tr *tracer, net *core.Network) error {
	type setup struct {
		Net      *core.WireNetwork
		Programs []core.WireProgramEntry
	}
	t := tr.begin("dist.encode", 0)
	wn, err := core.EncodeNetwork(net)
	if err != nil {
		return err
	}
	progs, err := core.EncodePrograms(net)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(setup{Net: wn, Programs: progs}); err != nil {
		return err
	}
	ls.encode.add(t.end())
	ls.setupBytes = buf.Len()
	t = tr.begin("dist.decode", 0)
	var s setup
	if err := gob.NewDecoder(&buf).Decode(&s); err != nil {
		return err
	}
	dn, err := core.DecodeNetwork(s.Net)
	if err != nil {
		return err
	}
	if err := core.InstallPrograms(dn, s.Programs); err != nil {
		return err
	}
	ls.decode.add(t.end())
	return nil
}

// put adds the module metrics this layerStats covers to out.
func (ls *layerStats) put(out map[string]metric) {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	out["prog.compile_ms"] = metric{ls.compileMs, "ms"}
	out["prog.compile_count"] = metric{float64(ls.compileCount), "count"}
	out["core.run_p50_ms"] = metric{ls.coreRun.median(), "ms"}
	out["core.paths_per_matrix"] = metric{float64(ls.paths), "count"}
	out["core.failed_path_share"] = metric{ratio(float64(ls.failed), float64(ls.paths)), "ratio"}
	out["core.history_entries"] = metric{float64(ls.history), "count"}
	out["solver.sat_checks"] = metric{float64(ls.satChecks), "count"}
	out["solver.adds"] = metric{float64(ls.adds), "count"}
	out["solver.branches"] = metric{float64(ls.branches), "count"}
	out["solver.memo_hit_ratio"] = metric{ratio(float64(ls.memoHits), float64(ls.memoAll)), "ratio"}
	out["sched.speedup"] = metric{ratio(ls.seqPass.median(), ls.parMatrix.median()), "ratio"}
	out["sched.steals"] = metric{ratio(float64(ls.steals), float64(len(ls.parMatrix))), "count"}
	out["verify.allocs_per_matrix"] = metric{ls.allocs.median(), "count"}
	out["verify.bytes_per_matrix"] = metric{ls.bytes.median(), "B"}
	out["verify.gc_cycles_per_matrix"] = metric{ls.gcs.median(), "count"}
	out["dist.encode_ms"] = metric{ls.encode.median(), "ms"}
	out["dist.decode_ms"] = metric{ls.decode.median(), "ms"}
	out["dist.setup_bytes"] = metric{float64(ls.setupBytes), "B"}
}

// layerPasses runs the traced per-module passes on m: reps workers-1 core
// passes and codec round trips, plus reps instrumented all-cores matrices
// when the workload's own loop runs none.
func (ls *layerStats) layerPasses(tr *tracer, rng *rand.Rand, m *matrixNet, reps int, matrices bool) error {
	for i := 0; i < reps; i++ {
		if err := ls.corePass(tr, m); err != nil {
			return err
		}
		if matrices {
			if _, err := ls.instrumentedMatrix(tr, m, permuted(rng, m.sources)); err != nil {
				return fmt.Errorf("%s instrumented matrix: %w", m.name, err)
			}
		}
		if err := ls.codecPass(tr, m.net); err != nil {
			return fmt.Errorf("%s codec pass: %w", m.name, err)
		}
	}
	return nil
}

// runAllpairs is the batch-verification workload: one caller alternates the
// department and backbone all-pairs matrices at all cores.
func runAllpairs(cfg *config) (*result, error) {
	exp, err := loadExpected(cfg.expected)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	ls := &layerStats{}
	var setups []time.Duration
	var dept, bb *matrixNet
	for i := 0; i < 9; i++ {
		runtime.GC() // every set-up starts from a collected heap
		c0, ns0 := compileCounters()
		t := tr.begin("setup", 0)
		dept, bb = buildDepartment(), buildBackbone()
		for _, m := range []*matrixNet{dept, bb} {
			if _, err := m.session(-1, nil); err != nil {
				return nil, err
			}
		}
		setups = append(setups, t.end())
		c1, ns1 := compileCounters()
		ls.compileCount, ls.compileMs = c1-c0, float64(ns1-ns0)/1e6
	}
	var tl tally
	rng := rand.New(rand.NewSource(cfg.seed))
	var deptT, bbT samples
	matrix := func(m *matrixNet, into *samples, instrumented bool) {
		srcs := permuted(rng, m.sources)
		var rep *symnet.AllPairsReport
		var err error
		if instrumented {
			rep, err = ls.instrumentedMatrix(tr, m, srcs)
		} else {
			var sess *symnet.Session
			if sess, err = m.session(-1, nil); err == nil {
				t := tr.begin("verify.allpairs."+m.name, 0)
				rep, err = sess.AllPairs(srcs, m.packet, m.targets)
				into.add(t.end())
			}
		}
		if err == nil {
			err = exp[m.name].check(srcs, m.targets, rep.Reachable, rep.PathCount)
		}
		if err != nil {
			tl.fail("%s matrix: %v", m.name, err)
			return
		}
		tl.ok()
	}
	// A traced run alternates plain pairs of matrices with pairs whose
	// department matrix runs instrumented, so the two are compared under
	// the same host conditions.
	runtime.GC()
	for i, end := 0, time.Now().Add(cfg.seconds); running(i, end, cfg.trace); i++ {
		instrumented := cfg.trace && i%2 == 1
		tr.on = instrumented
		matrix(dept, &deptT, instrumented)
		matrix(bb, &bbT, false)
	}

	out := map[string]metric{}
	if cfg.trace {
		tr.on = true
		out["obs.trace_overhead_share"] = metric{ls.parMatrix.median()/deptT.median() - 1, "ratio"}
		if err := ls.layerPasses(tr, rng, dept, 3, false); err != nil {
			tl.fail("%v", err)
		}
		ls.put(out)
		idle(out, "churn", "symnetd", "dist-pool")
	}

	// The backbone's recorded matrix must also agree with the HSA oracle.
	if err := exp[bb.name].check(bb.sources, bb.targets, bb.hsaMatrix(), nil); err != nil {
		tl.fail("backbone HSA oracle: %v", err)
	} else {
		tl.ok()
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if !cfg.trace {
		out["setup_s"] = metric{medianSeconds(setups), "s"}
		out["peak_rss_mb"] = metric{rss, "MB"}
		out["op_p50_ms"] = metric{deptT.median(), "ms"}
		out["op2_p50_ms"] = metric{bbT.median(), "ms"}
	}
	return finish(cfg, tr, &tl, out), nil
}

// runFleet is the distributed workload: a persistent pool of two local
// worker processes x one worker re-runs the department all-pairs jobs.
func runFleet(cfg *config) (*result, error) {
	exp, err := loadExpected(cfg.expected)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	ls := &layerStats{}
	c0, ns0 := compileCounters()
	dept := buildDepartment()
	if _, err := dept.session(-1, nil); err != nil {
		return nil, err
	}
	c1, ns1 := compileCounters()
	ls.compileCount, ls.compileMs = c1-c0, float64(ns1-ns0)/1e6
	rng := rand.New(rand.NewSource(cfg.seed))
	jobsFor := func(srcs []core.PortRef) []dist.Job {
		jobs := make([]dist.Job, len(srcs))
		for i, s := range srcs {
			jobs[i] = dist.Job{Name: s.String(), Inject: s, Packet: dept.packet,
				Opts: core.Options{MaxHops: dept.maxHops}}
		}
		return jobs
	}

	// The in-process reference: every fleet batch must match it byte for
	// byte, and its matrix must match the recorded one.
	var tl tally
	ref := map[string][]byte{}
	for _, jr := range dist.RunBatch(dept.net, jobsFor(dept.sources), 0, -1) {
		if jr.Err != nil {
			return nil, fmt.Errorf("in-process reference %s: %w", jr.Name, jr.Err)
		}
		b, err := json.Marshal(jr.Summary)
		if err != nil {
			return nil, err
		}
		ref[jr.Name] = b
	}
	checkBatch := func(srcs []core.PortRef, res []dist.JobResult) error {
		reach := make([][]bool, len(res))
		count := make([][]int, len(res))
		for i, jr := range res {
			if jr.Err != nil {
				return fmt.Errorf("job %s: %w", jr.Name, jr.Err)
			}
			b, err := json.Marshal(jr.Summary)
			if err != nil {
				return err
			}
			if !bytes.Equal(b, ref[srcs[i].String()]) {
				return fmt.Errorf("job %s differs from the in-process result", jr.Name)
			}
			reach[i] = make([]bool, len(dept.targets))
			count[i] = make([]int, len(dept.targets))
			for t, tgt := range dept.targets {
				count[i][t] = jr.Summary.DeliveredAt(tgt, -1)
				reach[i][t] = count[i][t] > 0
			}
		}
		return exp[dept.name].check(srcs, dept.targets, reach, count)
	}
	newPool := func(o *obs.Obs) (*dist.Pool, error) {
		return dist.NewPool(dist.Config{Procs: 2, WorkersPerProc: 1, ShareSat: true, Obs: o})
	}
	batch := func(p *dist.Pool, into *samples, name string) {
		srcs := permuted(rng, dept.sources)
		t := tr.begin(name, 0)
		res := p.RunBatch(dept.net, jobsFor(srcs))
		into.add(t.end())
		if err := checkBatch(srcs, res); err != nil {
			tl.fail("%s: %v", name, err)
			return
		}
		tl.ok()
	}

	var setups []time.Duration
	var pool *dist.Pool
	for i := 0; i < 5; i++ {
		if pool != nil {
			pool.Close()
		}
		runtime.GC()
		var first samples
		t := tr.begin("setup", 0)
		if pool, err = newPool(nil); err != nil {
			return nil, err
		}
		batch(pool, &first, "dist.batch.full")
		setups = append(setups, t.end())
	}
	defer pool.Close()

	var reuseT, fullT samples
	out := map[string]metric{}
	if !cfg.trace {
		runtime.GC()
		for i, end := 0, time.Now().Add(cfg.seconds); time.Now().Before(end); i++ {
			if i%5 == 4 {
				pool.Invalidate()
				batch(pool, &fullT, "dist.batch.full")
			} else {
				batch(pool, &reuseT, "dist.batch.reuse")
			}
		}
	} else {
		// A second pool reports into a registry. Reuse batches alternate
		// between the plain and the instrumented pool; each instrumented
		// batch is followed by the in-process matrix it is compared with.
		reg := obs.NewRegistry()
		tpool, err := newPool(obs.New(reg, nil))
		if err != nil {
			return nil, err
		}
		defer tpool.Close()
		var firstT, reuseI samples
		batch(tpool, &firstT, "dist.batch.full")
		before := reg.Snapshot()
		runtime.GC()
		for i, end := 0, time.Now().Add(cfg.seconds); running(i, end, true); i++ {
			tr.on = i%2 == 1
			if !tr.on {
				batch(pool, &reuseT, "dist.batch.reuse")
				continue
			}
			batch(tpool, &reuseI, "dist.batch.reuse")
			srcs := permuted(rng, dept.sources)
			rep, err := ls.instrumentedMatrix(tr, dept, srcs)
			if err == nil {
				err = exp[dept.name].check(srcs, dept.targets, rep.Reachable, rep.PathCount)
			}
			if err != nil {
				tl.fail("in-process matrix: %v", err)
			} else {
				tl.ok()
			}
		}
		after := reg.Snapshot()
		perBatch := func(k string) float64 {
			return float64(after.Counters[k]-before.Counters[k]) / float64(max(len(reuseI), 1))
		}
		out["obs.trace_overhead_share"] = metric{reuseI.median()/reuseT.median() - 1, "ratio"}
		out["dist.frame_bytes_per_batch"] = metric{perBatch("dist.frame.bytes_in") + perBatch("dist.frame.bytes_out"), "B"}
		out["dist.jobs_stolen"] = metric{perBatch("dist.jobs.stolen"), "count"}
		out["dist.batch_overhead_ms"] = metric{reuseI.median() - ls.parMatrix.median(), "ms"}
		tr.on = true
		if err := ls.layerPasses(tr, rng, dept, 3, false); err != nil {
			tl.fail("%v", err)
		}
		ls.put(out)
		idle(out, "churn", "symnetd")
	}
	if !cfg.trace {
		rss := 0.0
		for _, pid := range childPIDs(os.Getpid()) {
			r, err := peakRSSMB(pid)
			if err == nil && r > rss {
				rss = r
			}
		}
		if rss == 0 {
			return nil, fmt.Errorf("no fleet worker process found for peak RSS")
		}
		out["setup_s"] = metric{medianSeconds(setups), "s"}
		out["peak_rss_mb"] = metric{rss, "MB"}
		out["op_p50_ms"] = metric{reuseT.median(), "ms"}
		out["op2_p50_ms"] = metric{fullT.median(), "ms"}
	}
	return finish(cfg, tr, &tl, out), nil
}
