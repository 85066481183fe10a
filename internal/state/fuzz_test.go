package state

import (
	"slices"
	"sort"
	"testing"

	"snap/internal/values"
)

// refTable is FuzzTable's reference: the string-keyed map the dense
// tables replaced, keyed by Tuple.Key(), retaining each entry's first
// index tuple.
type refTable map[string]Entry

func (r refTable) get(idx values.Tuple) values.Value {
	if e, ok := r[idx.Key()]; ok {
		return e.Val
	}
	return Default
}

func (r refTable) set(idx values.Tuple, v values.Value) {
	k := idx.Key()
	e, ok := r[k]
	if !ok {
		e.Idx = append(values.Tuple(nil), idx...)
	}
	e.Val = v
	r[k] = e
}

func (r refTable) clone() refTable {
	c := make(refTable, len(r))
	for k, e := range r {
		c[k] = e
	}
	return c
}

// equal mirrors Table.equal: an absent entry reads as Default.
func (r refTable) equal(o refTable) bool {
	for _, pair := range [][2]refTable{{r, o}, {o, r}} {
		for k, e := range pair[0] {
			got := Default
			if oe, ok := pair[1][k]; ok {
				got = oe.Val
			}
			if !values.Eq(got, e.Val) {
				return false
			}
		}
	}
	return true
}

// FuzzTable runs decoded sequences of Get, Set, Add, SetTuple and Clone,
// at indices of arity up to values.MaxVec+2, on up to three tables against
// refTable, and compares every table's Entries (order, retained index
// tuples, values) and their pairwise equality after each step. The pool
// holds the key string of a wide tuple of zeros, so a string element and a
// wide key sharing a number is among the cases.
func FuzzTable(f *testing.F) {
	f.Add([]byte{1, 0, 1, 2, 3, 2, 0, 1, 2, 5, 4, 0, 2, 1, 1, 2, 3})
	f.Add([]byte{3, 0, 4, 7, 7, 7, 7, 1, 4, 0, 2, 1, 4, 7, 7, 7, 7, 1, 0})
	f.Add([]byte{1, 0, 1, 9, 4, 0, 1, 1, 1, 10, 0, 0, 1, 10, 2, 1, 2, 9, 4, 1})
	f.Add([]byte{2, 0, 2, 6, 5, 4, 0, 2, 1, 2, 6, 5, 3, 2, 5, 8, 8, 8, 8, 8, 1})
	pool := []values.Value{
		values.Int(0), values.Int(1), values.Bool(true), values.Bool(false),
		values.IP(1), values.Prefix(10<<24, 8), values.Prefix(10<<24, 16),
		values.IP(10 << 24), values.String("a"), values.String("b"),
		values.String(""), values.Int(-1),
		values.String(values.Tuple{values.Int(0), values.Int(0), values.Int(0), values.Int(0), values.Int(0)}.Key()),
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		tuple := func() values.Tuple {
			n := next() % (values.MaxVec + 3) // above MaxVec is wide
			tu := make(values.Tuple, n)
			for i := range tu {
				tu[i] = pool[next()%len(pool)]
			}
			return tu
		}
		tables := []*Table{new(Table)}
		refs := []refTable{{}}
		for step := 0; len(data) > 0 && step < 200; step++ {
			op, ti := next()%5, next()%len(tables)
			tbl, ref := tables[ti], refs[ti]
			if op == 4 {
				if len(tables) < 3 {
					c := tbl.Clone()
					tables, refs = append(tables, &c), append(refs, ref.clone())
				}
				continue
			}
			idx := tuple()
			v := values.VecOf(idx)
			val := pool[next()%len(pool)]
			var got values.Value
			switch op {
			case 0:
				got = tbl.Get(&v)
			case 1:
				tbl.Set(&v, val)
				got = val
			case 2:
				delta := int64(next()%3) - 1
				got = tbl.Add(&v, delta)
				val = values.Int(ref.get(idx).AsInt() + delta)
			case 3:
				tbl.SetTuple(idx, val)
				got = val
			}
			if op != 0 {
				ref.set(idx, val)
			}
			if want := ref.get(idx); !values.Eq(got, want) {
				t.Fatalf("step %d: op %d at %v on table %d returns %v, reference %v", step, op, idx, ti, got, want)
			}
			for i := range tables {
				checkAgainst(t, step, tables[i], refs[i])
				for j := range tables {
					if want := refs[i].equal(refs[j]); tables[i].equal(tables[j]) != want {
						t.Fatalf("step %d: tables %d and %d: equal is not %v", step, i, j, want)
					}
				}
			}
		}
	})
}

func checkAgainst(t *testing.T, step int, tbl *Table, ref refTable) {
	t.Helper()
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	es := tbl.Entries()
	if len(es) != len(keys) || tbl.Len() != len(keys) {
		t.Fatalf("step %d: %d entries (Len %d), reference %d", step, len(es), tbl.Len(), len(keys))
	}
	for i, k := range keys {
		want := ref[k]
		if !slices.Equal(es[i].Idx, want.Idx) || !values.Eq(es[i].Val, want.Val) {
			t.Fatalf("step %d: entry %d is %v = %v, reference %v = %v", step, i, es[i].Idx, es[i].Val, want.Idx, want.Val)
		}
	}
}
