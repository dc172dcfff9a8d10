package dist

// Wire-protocol codec tests: session frames round-trip exactly through the
// gob conn, and malformed streams — truncated or corrupted at the handshake,
// setup, or mid-batch — fail with pointed, byte-stable error messages.

import (
	"bytes"
	"encoding/json"
	"net"
	"strings"
	"testing"

	"symnet/internal/core"
	"symnet/internal/sefl"
	"symnet/internal/solver"
)

// testFleetNet is a two-sink egress switch: small enough to set up in every
// test, rich enough that results have paths, constraints and distinct
// fingerprints (so a stale worker would produce different bytes).
func testFleetNet() (*core.Network, []Job) {
	n := core.NewNetwork()
	sw := n.AddElement("SW", "switch", 1, 2)
	sw.SetInCode(0, sefl.Fork{Ports: []int{0, 1}})
	sw.SetOutCode(0, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xaa, 48))})
	sw.SetOutCode(1, sefl.Constrain{C: sefl.Eq(sefl.Ref{LV: sefl.EtherDst}, sefl.CW(0xbb, 48))})
	for i, h := range []string{"H0", "H1"} {
		e := n.AddElement(h, "sink", 1, 0)
		e.SetInCode(0, sefl.NoOp{})
		n.MustLink("SW", i, h, 0)
	}
	jobs := []Job{
		{Name: "q0", Inject: core.PortRef{Elem: "SW", Port: 0}, Packet: sefl.NewEthernetPacket()},
		{Name: "q1", Inject: core.PortRef{Elem: "SW", Port: 0}, Packet: sefl.NewEthernetPacket()},
	}
	return n, jobs
}

// encodeInput renders a frame sequence (plus optional trailing raw bytes)
// the way a coordinator would put them on the wire.
func encodeInput(t *testing.T, frames []*frame, trailing []byte) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	c := newConn(&buf, &buf)
	for _, f := range frames {
		if err := c.send(f); err != nil {
			t.Fatalf("encode frame kind %d: %v", f.Kind, err)
		}
	}
	buf.Write(trailing)
	return &buf
}

// jsonEq compares two wire values structurally via their JSON encodings
// (gob is not canonical across streams, JSON of the exported fields is).
func jsonEq(t *testing.T, a, b interface{}) bool {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Equal(ja, jb)
}

// sessionFrames returns one frame of every live kind, with real payloads:
// a delta (re-encoded programs of one port, the frame a reconnecting pool
// depends on), wire jobs, and a result whose summary carries a port trail.
// The round-trip test and the frame-decoder fuzz seeds share them.
func sessionFrames(t testing.TB) []*frame {
	t.Helper()
	net, jobs := testFleetNet()
	progs, err := core.EncodeProgramsFor(net, []core.PortRef{{Elem: "SW", Port: 0, Out: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 {
		t.Fatalf("expected 1 program entry for SW.out[0], got %d", len(progs))
	}
	wire, err := buildShard(jobs, 0, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	return []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "run-42"}},
		{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion, Gen: 7}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 3, Gen: 8, Workers: 2, Shard: 1, ShareSat: true, Metrics: true, Delta: &deltaFrame{Programs: progs}}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 4, Gen: 8, SetupRaw: []byte{1, 2, 3}}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire}},
		{Kind: frameResult, Result: &resultFrame{Index: 1, Name: "q1", Summary: testSummary(t)}},
		{Kind: frameResult, Result: &resultFrame{Index: 0, Name: "q0", Err: "boom"}},
		{Kind: frameVerdicts, Verdicts: []solver.SatRecord{{Key: solver.SatKey{N: 3}, V: solver.SatVerdict{Sat: true, Branches: 2}}}},
		{Kind: frameCancel, Cancel: &cancelFrame{Indexes: []int{4, 9, 2}}},
		{Kind: frameEnd},
		{Kind: frameDone, Done: &doneFrame{Seq: 3}},
		{Kind: frameBye},
	}
}

// testSummary summarizes the fleet net's first job in process: two paths
// over a five-node trail.
func testSummary(t testing.TB) *Summary {
	t.Helper()
	net, jobs := testFleetNet()
	res, err := core.Run(net, jobs[0].Inject, jobs[0].Packet, jobs[0].Opts)
	if err != nil {
		t.Fatal(err)
	}
	s := SummaryOf(res)
	if len(s.Paths) != 2 || len(s.Trail) != 5 {
		t.Fatalf("fixture summary has %d paths over %d trail nodes, want 2 over 5", len(s.Paths), len(s.Trail))
	}
	return s
}

// TestSessionFramesRoundTrip pushes every session frame through a conn pair
// and checks the decoded payloads field-for-field.
func TestSessionFramesRoundTrip(t *testing.T) {
	frames := sessionFrames(t)
	var buf bytes.Buffer
	c := newConn(&buf, &buf)
	for _, f := range frames {
		if err := c.send(f); err != nil {
			t.Fatalf("send kind %d: %v", f.Kind, err)
		}
	}
	for i, want := range frames {
		got, err := c.recv()
		if err != nil {
			t.Fatalf("recv frame %d: %v", i, err)
		}
		if got.Kind != want.Kind {
			t.Fatalf("frame %d: kind %d, want %d", i, got.Kind, want.Kind)
		}
		if !jsonEq(t, got, want) {
			t.Errorf("frame %d (kind %d) did not round-trip", i, want.Kind)
		}
	}
}

// TestWorkerSessionHandshakeErrors pins the handshake's failure messages:
// wrong first frame, protocol-version mismatch, and garbage or truncation on
// the wire each produce a distinct, stable error.
func TestWorkerSessionHandshakeErrors(t *testing.T) {
	validHello := encodeInput(t, []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}}}, nil).Bytes()
	cases := []struct {
		name   string
		frames []*frame
		raw    []byte
		want   string
	}{
		{
			name:   "first frame not hello",
			frames: []*frame{{Kind: frameJobs, Jobs: &jobsFrame{}}},
			want:   "protocol: first frame is 2, want hello",
		},
		{
			name:   "version mismatch",
			frames: []*frame{{Kind: frameHello, Hello: &helloFrame{Proto: 99, RunID: "r"}}},
			want:   "protocol: coordinator speaks version 99, want 3",
		},
		{
			name: "garbage stream",
			raw:  []byte("definitely not a gob stream"),
			want: "reading hello:",
		},
		{
			name: "truncated hello",
			raw:  validHello[:len(validHello)-3],
			want: "reading hello:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := encodeInput(t, tc.frames, tc.raw)
			var out bytes.Buffer
			err := serveSession(newConn(in, &out), nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWorkerBatchProtocolErrors pins the batch loop's failure messages: a
// delta or reuse setup against a worker holding nothing, a generation
// mismatch on reuse, a corrupt setup blob, and a stream truncated mid-batch.
func TestWorkerBatchProtocolErrors(t *testing.T) {
	net, _ := testFleetNet()
	setup, err := buildSetup(net)
	if err != nil {
		t.Fatal(err)
	}
	setupRaw, err := encodeSetup(setup)
	if err != nil {
		t.Fatal(err)
	}
	hello := &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}}
	cases := []struct {
		name     string
		frames   []*frame
		trailing []byte
		want     string
	}{
		{
			name:   "reuse without retained state",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1}}},
			want:   "protocol: reuse setup with no retained network",
		},
		{
			name: "delta without retained state",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{
				Seq: 1, Gen: 2, Delta: &deltaFrame{Programs: []core.WireProgramEntry{{Elem: "SW"}}},
			}}},
			want: "protocol: delta setup with no retained network",
		},
		{
			name:   "corrupt setup blob",
			frames: []*frame{hello, {Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: []byte("corrupt")}}},
			want:   "decoding setup:",
		},
		{
			name: "reuse at wrong generation",
			frames: []*frame{
				hello,
				{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 5, SetupRaw: setupRaw, Workers: 1}},
				{Kind: frameEnd},
				{Kind: frameBatch, Batch: &batchFrame{Seq: 2, Gen: 9, Workers: 1}},
			},
			want: "protocol: reuse setup at generation 9, worker holds 5",
		},
		{
			name: "truncated mid-batch",
			frames: []*frame{
				hello,
				{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: setupRaw, Workers: 1}},
			},
			trailing: []byte{0x01},
			want:     "reading frame:",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in := encodeInput(t, tc.frames, tc.trailing)
			var out bytes.Buffer
			err := serveSession(newConn(in, &out), nil, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestWorkerSessionServesBatches drives a full two-batch session (full setup
// then reuse) through a worker on in-memory buffers and checks the reply
// stream frame-for-frame: hello ack, in-order results, a done per batch, and
// summaries byte-identical to the in-process engine's.
func TestWorkerSessionServesBatches(t *testing.T) {
	net, jobs := testFleetNet()
	setup, err := buildSetup(net)
	if err != nil {
		t.Fatal(err)
	}
	setupRaw, err := encodeSetup(setup)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := buildShard(jobs, 0, len(jobs))
	if err != nil {
		t.Fatal(err)
	}
	in := encodeInput(t, []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, RunID: "r"}},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 1, Gen: 1, SetupRaw: setupRaw, Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire}},
		{Kind: frameEnd},
		{Kind: frameBatch, Batch: &batchFrame{Seq: 2, Gen: 1, Workers: 1}},
		{Kind: frameJobs, Jobs: &jobsFrame{Jobs: wire[:1]}},
		{Kind: frameEnd},
		{Kind: frameBye},
	}, nil)
	var out bytes.Buffer
	if err := serveSession(newConn(in, &out), nil, nil); err != nil {
		t.Fatalf("serveSession: %v", err)
	}

	// In-process references, one per job, summarized identically.
	want := make(map[int]*Summary)
	for i, j := range jobs {
		res, err := core.Run(net, j.Inject, j.Packet, j.Opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = SummaryOf(res)
	}

	c := newConn(&out, &out)
	expect := []struct {
		kind frameKind
		idx  int // result index, or done seq
	}{
		{frameHelloAck, 0},
		{frameResult, 0}, {frameResult, 1}, {frameDone, 1},
		{frameResult, 0}, {frameDone, 2},
	}
	for i, e := range expect {
		f, err := c.recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if f.Kind != e.kind {
			t.Fatalf("reply %d: kind %d, want %d", i, f.Kind, e.kind)
		}
		switch e.kind {
		case frameHelloAck:
			if f.HelloAck.Gen != 0 {
				t.Fatalf("fresh worker acked generation %d", f.HelloAck.Gen)
			}
		case frameResult:
			if f.Result.Index != e.idx || f.Result.Err != "" {
				t.Fatalf("reply %d: result %+v, want index %d", i, f.Result, e.idx)
			}
			if !jsonEq(t, f.Result.Summary, want[e.idx]) {
				t.Errorf("reply %d: summary for job %d differs from in-process run", i, e.idx)
			}
		case frameDone:
			if f.Done.Seq != uint64(e.idx) {
				t.Fatalf("reply %d: done seq %d, want %d", i, f.Done.Seq, e.idx)
			}
		}
	}
}

// TestMalformedSummaryFailsItsJob pins the coordinator's check on summaries
// that crossed the wire: each corrupted trail index fails the job it came
// with, naming the job and the bad index, and never reaches History or
// DeliveredAt. A valid summary passes through untouched.
func TestMalformedSummaryFailsItsJob(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*Summary)
		want    string
	}{
		{"valid", func(*Summary) {}, ""},
		{"prev not before its node", func(s *Summary) { s.Trail[1].Prev = 1 },
			`dist: job "q1": malformed summary: trail node 1 has prev 1, want in [-1, 1)`},
		{"prev past the trail", func(s *Summary) { s.Trail[3].Prev = 9 },
			`dist: job "q1": malformed summary: trail node 3 has prev 9, want in [-1, 3)`},
		{"prev below -1", func(s *Summary) { s.Trail[0].Prev = -2 },
			`dist: job "q1": malformed summary: trail node 0 has prev -2, want in [-1, 0)`},
		{"tail past the trail", func(s *Summary) { s.Paths[1].Tail = 5 },
			`dist: job "q1": malformed summary: path 1 has tail 5, want in [-1, 5)`},
		{"tail below -1", func(s *Summary) { s.Paths[0].Tail = -7 },
			`dist: job "q1": malformed summary: path 0 has tail -7, want in [-1, 5)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sum := testSummary(t)
			tc.corrupt(sum)
			in := encodeInput(t, []*frame{{Kind: frameResult, Result: &resultFrame{Index: 1, Name: "q1", Summary: sum}}}, nil)
			f, err := newConn(in, in).recv()
			if err != nil {
				t.Fatal(err)
			}
			jr := f.Result.jobResult()
			if tc.want == "" {
				if jr.Err != nil || !jsonEq(t, jr.Summary, sum) {
					t.Fatalf("valid summary rejected or altered: %+v", jr)
				}
				return
			}
			if jr.Err == nil || jr.Err.Error() != tc.want || jr.Summary != nil {
				t.Fatalf("got %+v (err %v), want error %q and no summary", jr, jr.Err, tc.want)
			}
		})
	}
}

// TestPoolFailsMalformedSummaryJob drives a pool against a hand-written TCP
// worker that answers job q1 with a corrupted summary: q1 fails with the
// validation error, and its sibling q0 still completes.
func TestPoolFailsMalformedSummaryJob(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	good := testSummary(t)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		c := newConn(nc, nc)
		for {
			f, err := c.recv()
			if err != nil {
				return
			}
			switch f.Kind {
			case frameHello:
				c.send(&frame{Kind: frameHelloAck, HelloAck: &helloAckFrame{Proto: protoVersion}})
			case frameJobs:
				for _, j := range f.Jobs.Jobs {
					sum := *good
					if j.Name == "q1" {
						sum.Paths = append([]PathSummary(nil), good.Paths...)
						sum.Paths[1].Tail = 99
					}
					c.send(&frame{Kind: frameResult, Result: &resultFrame{Index: j.Index, Name: j.Name, Summary: &sum}})
				}
			case frameEnd:
				c.send(&frame{Kind: frameDone, Done: &doneFrame{Seq: 1}})
			case frameBye:
				return
			}
		}
	}()
	p, err := NewPool(Config{Workers: []string{ln.Addr().String()}, NoSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	network, jobs := testFleetNet()
	out := p.RunBatch(network, jobs)
	if out[0].Err != nil || out[0].Summary == nil || out[0].Summary.DeliveredAt("H0", -1) != 1 {
		t.Fatalf("sibling job: %+v", out[0])
	}
	want := `dist: job "q1": malformed summary: path 1 has tail 99, want in [-1, 5)`
	if out[1].Err == nil || out[1].Err.Error() != want || out[1].Summary != nil {
		t.Fatalf("corrupted job: %+v, want error %q", out[1], want)
	}
}
