package churn

import (
	"bytes"
	"reflect"
	"testing"

	"symnet/internal/tables"
)

// The two decoders below read symnetd's POST bodies (/v1/delta and
// /v1/snapshot) and -state files. Invariant for every input: it either
// errors, or re-encodes and decodes to an equal value; it never panics.

func FuzzDecodeDeltasLenient(f *testing.F) {
	// TestDeltaCodecRoundTrip's stream, plus malformed lines the daemon
	// reports per line.
	fds, err := GenFIBDeltas("rt", genTestFIB(), "10.128.0.0/9", 25, 5)
	if err != nil {
		f.Fatal(err)
	}
	mds, err := GenMACDeltas("sw", genTestMACs(), 25, 5)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	buf.WriteString("# comment line\n\n")
	if err := EncodeDeltas(&buf, append(fds, mds...)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{not json}` + "\n" + `{"elem":"rt","op":"teleport","prefix":"10.0.0.0/8"}` + "\n"))
	f.Add([]byte(`{"elem":"rt","op":"insert","prefix":"10.0.0/8","port":1}` + "\n" +
		`{"elem":"sw","op":"delete","mac":"02:00:00:00:00:zz"}` + "\n" +
		`{"elem":"rt","op":"modify","prefix":"10.0.0.0/40","port":-1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ds, _, err := DecodeDeltasLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeDeltas(&out, ds); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := DecodeDeltas(&out)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out.Bytes(), err)
		}
		if !reflect.DeepEqual(got, ds) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, ds)
		}
	})
}

func FuzzReadState(f *testing.F) {
	// The shape TestStateRoundTrip exports, plus TestStateValidation's
	// rejects.
	st := &State{
		Schema: StateSchema, Version: 2, DeltasApplied: 8,
		Routers:  map[string]tables.FIB{"rt": diffFIB()},
		Switches: map[string]tables.MACTable{"sw": diffMACs()},
	}
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":99}`))
	f.Add([]byte(`{garbage`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := ReadState(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := st.WriteTo(&out); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		got, err := ReadState(&out)
		if err != nil {
			t.Fatalf("re-decode of %q: %v", out.Bytes(), err)
		}
		// omitempty drops empty table maps, which decode back as nil.
		for _, s := range []*State{st, got} {
			if len(s.Routers) == 0 {
				s.Routers = nil
			}
			if len(s.Switches) == 0 {
				s.Switches = nil
			}
		}
		if !reflect.DeepEqual(got, st) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
		}
	})
}
