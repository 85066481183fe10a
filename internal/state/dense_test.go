package state

import (
	"testing"

	"snap/internal/values"
)

func vec(vs ...values.Value) values.Vec {
	v, ok := values.VecOf(values.Tuple(vs))
	if !ok {
		panic("vec too wide")
	}
	return v
}

func TestTableGetSetAdd(t *testing.T) {
	var tbl Table
	idx := vec(values.Int(3))
	k := KeyOf(idx)
	if got := tbl.Get(k); !values.Eq(got, Default) {
		t.Fatalf("empty read: %v", got)
	}
	tbl.Set(k, idx, values.Bool(true))
	if got := tbl.Get(k); !got.True() {
		t.Fatalf("after set: %v", got)
	}
	// Add coerces like Store.Add: True → 1, then +1.
	if v := tbl.Add(k, idx, 1); !values.Eq(v, values.Int(2)) {
		t.Fatalf("add on bool: %v", v)
	}
	// Absent entry: Default (False) coerces to 0.
	idx2 := vec(values.Int(9))
	if v := tbl.Add(KeyOf(idx2), idx2, -1); !values.Eq(v, values.Int(-1)) {
		t.Fatalf("add on absent: %v", v)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len: %d", tbl.Len())
	}
}

// Keys must collide exactly when the canonical string keys collide:
// booleans and integers coerce, IPs and prefixes do not.
func TestKeyCollisionClasses(t *testing.T) {
	pairs := []values.Tuple{
		{values.Bool(true)}, {values.Int(1)},
		{values.Int(0)}, {values.Bool(false)},
		{values.IP(1)}, {values.Int(1), values.Int(0)},
		{values.String("a")}, {values.Prefix(10<<24, 8)},
	}
	for _, a := range pairs {
		for _, b := range pairs {
			ka, ok := KeyOfTuple(a)
			if !ok {
				t.Fatal("unexpected wide")
			}
			kb, _ := KeyOfTuple(b)
			if (ka == kb) != (a.Key() == b.Key()) {
				t.Fatalf("Key collision mismatch for %v vs %v", a, b)
			}
		}
	}
}

// Overwrites keep the first-insert index tuple and do not re-clone it.
func TestSetRetainsFirstIndex(t *testing.T) {
	var tbl Table
	idx := vec(values.Bool(true))
	tbl.Set(KeyOf(idx), idx, values.Int(1))
	first := tbl.Entries()[0].Idx
	// Eq-equal but distinct raw index: entry keeps the original.
	idx2 := vec(values.Int(1))
	tbl.Set(KeyOf(idx2), idx2, values.Int(2))
	second := tbl.Entries()[0].Idx
	if &first[0] != &second[0] {
		t.Fatal("overwrite re-cloned the index tuple")
	}
	if first[0] != values.Bool(true) {
		t.Fatalf("retained index changed: %v", first[0])
	}

	st := NewStore()
	st.Set("s", values.Tuple{values.Bool(true)}, values.Int(1))
	st.Set("s", values.Tuple{values.Int(1)}, values.Int(2))
	es := st.Entries("s")
	if len(es) != 1 || es[0].Idx[0] != values.Bool(true) || !values.Eq(es[0].Val, values.Int(2)) {
		t.Fatalf("store overwrite: %+v", es)
	}
}

func TestTableEntriesSorted(t *testing.T) {
	var tbl Table
	for i := 5; i >= 0; i-- {
		idx := vec(values.Int(int64(i)))
		tbl.Set(KeyOf(idx), idx, values.Int(int64(i)))
	}
	es := tbl.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Idx.Key() > es[i].Idx.Key() {
			t.Fatalf("entries unsorted at %d", i)
		}
	}
}
