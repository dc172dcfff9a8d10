package main

import (
	"fmt"

	"symnet/internal/churn"
	"symnet/internal/tables"
)

// entry mirrors one row of a resident FIB or MAC table: the key is the
// route's (prefix, length) or the MAC (length 48).
type entry struct {
	key  uint64
	plen int
	port int
}

// deltaStream yields an endless, seeded stream of applicable deltas for one
// element. It generates a chunk with the churn package's generator, then
// the chunk's undo, so the table returns to its starting forwarding state
// and no chunk ever exhausts the generator's insert space (a single
// backbone stream runs out of fresh /24s in 198.18.0.0/15 after about 1,860
// inserts). The stream mirrors the service's table semantics (first
// matching row wins for delete and modify), so every delta it emits applies.
type deltaStream struct {
	elem    string
	mac     bool
	carrier string // FIB streams: where inserts draw fresh /24s
	chunk   int
	seed    int64
	cycle   int64
	table   []entry
	queue   []churn.Delta
	pinned  map[uint64]bool // keys the stream never changes
}

func newFIBStream(elem string, fib tables.FIB, carrier string, chunk int, seed int64) *deltaStream {
	s := &deltaStream{elem: elem, carrier: carrier, chunk: chunk, seed: seed}
	for _, r := range fib {
		s.table = append(s.table, entry{r.Prefix, r.Len, r.Port})
	}
	return s
}

// newMACStream churns one switch's MAC table. Deltas on a pinned MAC are
// dropped from every chunk.
func newMACStream(elem string, tbl tables.MACTable, chunk int, seed int64, pinned ...uint64) *deltaStream {
	s := &deltaStream{elem: elem, mac: true, chunk: chunk, seed: seed, pinned: map[uint64]bool{}}
	for _, m := range pinned {
		s.pinned[m] = true
	}
	for _, e := range tbl {
		s.table = append(s.table, entry{e.MAC, 48, e.Port})
	}
	return s
}

// next returns the stream's next n deltas.
func (s *deltaStream) next(n int) ([]churn.Delta, error) {
	for len(s.queue) < n {
		if err := s.refill(); err != nil {
			return nil, err
		}
	}
	out := s.queue[:n:n]
	s.queue = s.queue[n:]
	return out, nil
}

// refill appends one generated chunk and its undo to the queue.
func (s *deltaStream) refill() error {
	seed := s.seed*1_000_003 + s.cycle
	s.cycle++
	var ds []churn.Delta
	var err error
	if s.mac {
		var tbl tables.MACTable
		for _, e := range s.table {
			tbl = append(tbl, tables.MACEntry{MAC: e.key, Port: e.port})
		}
		ds, err = churn.GenMACDeltas(s.elem, tbl, s.chunk, seed)
	} else {
		var fib tables.FIB
		for _, e := range s.table {
			fib = append(fib, tables.Route{Prefix: e.key, Len: e.plen, Port: e.port})
		}
		ds, err = churn.GenFIBDeltas(s.elem, fib, s.carrier, s.chunk, seed)
	}
	if err != nil {
		return err
	}
	var kept, undo []churn.Delta
	for _, d := range ds {
		key, _, err := s.keyOf(d)
		if err != nil {
			return err
		}
		if s.pinned[key] {
			continue
		}
		u, err := s.apply(d)
		if err != nil {
			return err
		}
		kept = append(kept, d)
		undo = append(undo, u...)
	}
	for i, j := 0, len(undo)-1; i < j; i, j = i+1, j-1 {
		undo[i], undo[j] = undo[j], undo[i]
	}
	for _, u := range undo {
		if _, err := s.apply(u); err != nil {
			return fmt.Errorf("undo %v: %w", u, err)
		}
	}
	s.queue = append(s.queue, kept...)
	s.queue = append(s.queue, undo...)
	return nil
}

func (s *deltaStream) keyOf(d churn.Delta) (uint64, int, error) {
	if s.mac {
		m, err := churn.ParseMAC(d.MAC)
		return m, 48, err
	}
	return churn.ParsePrefixSafe(d.Prefix)
}

func (s *deltaStream) find(key uint64, plen int) int {
	for i, e := range s.table {
		if e.key == key && e.plen == plen {
			return i
		}
	}
	return -1
}

// apply mirrors one delta on the table and returns the deltas that undo it
// (none when deleting one of two identical duplicate rows, whose removal
// leaves forwarding unchanged and whose re-insert the service would reject).
func (s *deltaStream) apply(d churn.Delta) ([]churn.Delta, error) {
	key, plen, err := s.keyOf(d)
	if err != nil {
		return nil, err
	}
	i := s.find(key, plen)
	switch d.Op {
	case churn.OpInsert:
		if i >= 0 {
			return nil, fmt.Errorf("insert of present key %v", d)
		}
		s.table = append(s.table, entry{key, plen, d.Port})
		u := d
		u.Op, u.Port = churn.OpDelete, 0
		return []churn.Delta{u}, nil
	case churn.OpModify:
		if i < 0 {
			return nil, fmt.Errorf("modify of absent key %v", d)
		}
		u := d
		u.Port = s.table[i].port
		s.table[i].port = d.Port
		return []churn.Delta{u}, nil
	case churn.OpDelete:
		if i < 0 {
			return nil, fmt.Errorf("delete of absent key %v", d)
		}
		old := s.table[i].port
		s.table = append(s.table[:i:i], s.table[i+1:]...)
		u := d
		if j := s.find(key, plen); j >= 0 {
			if s.table[j].port == old {
				return nil, nil
			}
			u.Op, u.Port = churn.OpModify, old
			return []churn.Delta{u}, nil
		}
		u.Op, u.Port = churn.OpInsert, old
		return []churn.Delta{u}, nil
	}
	return nil, fmt.Errorf("unknown op %q", d.Op)
}
