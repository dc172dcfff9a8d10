package dist

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// FuzzDecodeFrame feeds arbitrary bytes to the frame decoder a coordinator
// and a worker both run on what a TCP peer sends. Each input either fails to
// decode, carries a result summary that Validate rejects, or decodes to a
// frame whose summary answers History, DeliveredAt and VisitedPorts and that
// re-encodes to an equal frame. Nothing panics. Seeds are the round-trip
// frames of the wire tests, one gob stream each.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range sessionFrames(f) {
		var buf bytes.Buffer
		if err := newConn(&buf, &buf).send(fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := newConn(bytes.NewReader(data), io.Discard).recv()
		if err != nil {
			return
		}
		if fr.Result != nil && fr.Result.Summary != nil {
			s := fr.Result.Summary
			if s.Validate() != nil {
				return
			}
			for i := range s.Paths {
				s.History(i)
			}
			s.DeliveredAt("SW", -1)
			s.VisitedPorts()
		}
		var buf bytes.Buffer
		c := newConn(&buf, &buf)
		if err := c.send(fr); err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		again, err := c.recv()
		if err != nil {
			t.Fatalf("decoding a re-encoded frame: %v", err)
		}
		if !reflect.DeepEqual(again, fr) {
			t.Fatalf("frame changed across re-encoding:\n got %+v\nwant %+v", again, fr)
		}
	})
}
