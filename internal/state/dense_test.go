package state

import (
	"testing"

	"snap/internal/values"
)

func vec(vs ...values.Value) values.Vec { return values.VecOf(values.Tuple(vs)) }

func TestTableGetSetAdd(t *testing.T) {
	var tbl Table
	idx := vec(values.Int(3))
	if got := tbl.Get(&idx); !values.Eq(got, Default) {
		t.Fatalf("empty read: %v", got)
	}
	tbl.Set(&idx, values.Bool(true))
	if got := tbl.Get(&idx); !got.True() {
		t.Fatalf("after set: %v", got)
	}
	// Add coerces like Store.Add: True → 1, then +1.
	if v := tbl.Add(&idx, 1); !values.Eq(v, values.Int(2)) {
		t.Fatalf("add on bool: %v", v)
	}
	// Absent entry: Default (False) coerces to 0.
	idx2 := vec(values.Int(9))
	if v := tbl.Add(&idx2, -1); !values.Eq(v, values.Int(-1)) {
		t.Fatalf("add on absent: %v", v)
	}
	if tbl.Len() != 2 {
		t.Fatalf("len: %d", tbl.Len())
	}
}

// Keys must collide exactly when the canonical string keys collide:
// booleans and integers coerce, IPs, prefixes of another length and
// distinct strings do not. Each table numbers its strings itself, so the
// classes are checked per table, with the strings inserted in either
// order.
func TestKeyCollisionClasses(t *testing.T) {
	pairs := []values.Tuple{
		{values.Bool(true)}, {values.Int(1)},
		{values.Int(0)}, {values.Bool(false)},
		{values.IP(1)}, {values.Int(1), values.Int(0)},
		{values.Prefix(10<<24, 8)}, {values.Prefix(10<<24, 16)}, {values.IP(10 << 24)},
		{values.String("a")}, {values.String("b")}, {values.String("")},
		{values.String("a"), values.Int(0)}, {values.Int(0), values.String("a")},
		{values.String("b"), values.String("a")}, {values.String("a"), values.String("b")},
		{},
	}
	checkCollisionClasses(t, pairs)
}

// Wide keys collide exactly when the tuples' string keys do, in the same
// classes as narrow ones, and never with a narrow key: not with a string
// element numbered like the wide key because it holds that key's string.
func TestWideKeyCollisionClasses(t *testing.T) {
	w := func(vs ...values.Value) values.Tuple {
		return append(values.Tuple{values.Int(2), values.Int(3), values.Int(4), values.Int(5)}, vs...)
	}
	pairs := []values.Tuple{
		w(values.Bool(true)), w(values.Int(1)),
		w(values.Bool(false)), w(values.Int(0)),
		w(values.IP(1)), w(values.IP(10 << 24)),
		w(values.Prefix(10<<24, 8)), w(values.Prefix(10<<24, 16)),
		w(values.String("a|b"), values.String("c")), w(values.String("a"), values.String("b|c")),
		w(values.String(`a"|s:"b`)), w(values.String("a"), values.String("b")),
		w(values.Int(1), values.Int(0)), w(values.Bool(true), values.Bool(false)),
		{values.String(w(values.Int(1)).Key())}, {values.Int(2), values.Int(3), values.Int(4), values.Int(5)},
	}
	checkCollisionClasses(t, pairs)
}

func checkCollisionClasses(t *testing.T, pairs []values.Tuple) {
	t.Helper()
	for _, order := range [][]values.Tuple{pairs, reversed(pairs)} {
		var d dense
		keys := make([]Key, len(order))
		for i, tu := range order {
			v := vec(tu...)
			keys[i], _ = d.keyOf(&v, true)
		}
		for i, a := range order {
			for j, b := range order {
				if (keys[i] == keys[j]) != (a.Key() == b.Key()) {
					t.Fatalf("Key collision mismatch for %v vs %v", a, b)
				}
			}
		}
	}

	// Through the table API: an entry written at a reads at b iff their
	// string keys are equal.
	for _, a := range pairs {
		var tbl Table
		tbl.SetTuple(a, values.Int(7))
		for _, b := range pairs {
			v := vec(b...)
			if got := tbl.Get(&v); values.Eq(got, values.Int(7)) != (a.Key() == b.Key()) {
				t.Fatalf("set at %v, read at %v: %v", a, b, got)
			}
		}
	}
}

func reversed(ts []values.Tuple) []values.Tuple {
	out := make([]values.Tuple, len(ts))
	for i, tu := range ts {
		out[len(ts)-1-i] = tu
	}
	return out
}

// The same string takes different numbers in two tables, and the tables
// still read, compare and list alike.
func TestStringKeysPerTable(t *testing.T) {
	var a, b Table
	x, y := vec(values.String("x")), vec(values.String("y"))
	a.Set(&x, values.Int(1))
	a.Set(&y, values.Int(2))
	b.Set(&y, values.Int(2))
	b.Set(&x, values.Int(1))
	ka, _ := a.d.keyOf(&x, false)
	kb, _ := b.d.keyOf(&x, false)
	if ka == kb {
		t.Fatal("the tables gave \"x\" one number: the check below tests nothing")
	}
	if !values.Eq(a.Get(&x), b.Get(&x)) || !a.equal(&b) || !b.equal(&a) {
		t.Fatal("tables holding the same strings under different numbers differ")
	}
	b.Set(&x, values.Int(3))
	if a.equal(&b) || b.equal(&a) {
		t.Fatal("tables that differ at a string index compare equal")
	}
	ea, eb := a.Entries(), b.Entries()
	if len(ea) != 2 || len(eb) != 2 || ea[0].Idx[0] != eb[0].Idx[0] || ea[1].Idx[0] != eb[1].Idx[0] {
		t.Fatalf("entries order differs: %v against %v", ea, eb)
	}
}

// A string value equal to a wide tuple's key string takes the number the
// wide tuple's key took, but the two entries stay apart.
func TestStringBesideWideKey(t *testing.T) {
	wide := vec(values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(5))
	str := vec(values.String(wide.Tuple().Key()))
	var tbl Table
	tbl.Set(&wide, values.Int(1))
	tbl.Set(&str, values.Int(2))
	if len(tbl.d.strs) != 1 || tbl.Len() != 2 {
		t.Fatalf("%d strings and %d entries, want one string and two entries", len(tbl.d.strs), tbl.Len())
	}
	if !values.Eq(tbl.Get(&wide), values.Int(1)) || !values.Eq(tbl.Get(&str), values.Int(2)) {
		t.Fatalf("wide reads %v, string reads %v", tbl.Get(&wide), tbl.Get(&str))
	}
}

// A read at a string the table never stored inserts nothing: no entry and
// no string number.
func TestUnseenStringGetInsertsNothing(t *testing.T) {
	var tbl Table
	seen, unseen := vec(values.String("seen"), values.Int(1)), vec(values.String("unseen"), values.Int(1))
	tbl.Set(&seen, values.Int(1))
	n, ns := tbl.Len(), len(tbl.d.strs)
	if got := tbl.Get(&unseen); !values.Eq(got, Default) {
		t.Fatalf("unseen string reads %v", got)
	}
	if _, ok := tbl.lookup(unseen.Tuple()); ok {
		t.Fatal("lookup found an unseen string")
	}
	if tbl.Len() != n || len(tbl.d.strs) != ns {
		t.Fatalf("a read inserted: %d entries, %d strings; want %d and %d", tbl.Len(), len(tbl.d.strs), n, ns)
	}

	// Nor does a read at a wide tuple the table never stored.
	wide := vec(values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(5))
	tbl.Set(&wide, values.Int(1))
	n, ns = tbl.Len(), len(tbl.d.strs)
	unseenWide := vec(values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(6))
	if got := tbl.Get(&unseenWide); !values.Eq(got, Default) {
		t.Fatalf("unseen wide tuple reads %v", got)
	}
	if _, ok := tbl.lookup(unseenWide.Tuple()); ok {
		t.Fatal("lookup found an unseen wide tuple")
	}
	if tbl.Len() != n || len(tbl.d.strs) != ns {
		t.Fatalf("a wide read inserted: %d entries, %d strings; want %d and %d", tbl.Len(), len(tbl.d.strs), n, ns)
	}
}

// A Table value is a handle: copies alias one set of entries, so an
// insert through one copy is seen through the other, as with a bare map.
func TestTableCopiesAlias(t *testing.T) {
	var a Table
	one := vec(values.Int(1))
	a.Set(&one, values.Int(1))
	b := a
	for i := int64(2); i < 100; i++ { // grow past any spare capacity
		v := vec(values.Int(i), values.String("s"))
		b.Set(&v, values.Int(i))
	}
	a.Add(&one, 1)
	if a.Len() != b.Len() || a.Len() != 99 {
		t.Fatalf("copies hold %d and %d entries, want 99", a.Len(), b.Len())
	}
	v := vec(values.Int(50), values.String("s"))
	if got := a.Get(&v); !values.Eq(got, values.Int(50)) {
		t.Fatalf("insert through one copy reads %v through the other", got)
	}
	if got := b.Get(&one); !values.Eq(got, values.Int(2)) {
		t.Fatalf("update through one copy reads %v through the other", got)
	}
}

// Writes update entries in place, so a Clone must copy them: an update
// on either side leaves the other as it was.
func TestCloneUpdatesDoNotLeak(t *testing.T) {
	var orig Table
	k, s := vec(values.Int(1)), vec(values.String("s"))
	orig.Set(&k, values.Int(1))
	orig.Set(&s, values.Int(1))
	c := orig.Clone()
	c.Add(&k, 10)
	c.Set(&s, values.Int(20))
	if !values.Eq(orig.Get(&k), values.Int(1)) || !values.Eq(orig.Get(&s), values.Int(1)) {
		t.Fatal("an update on the clone reached the original")
	}
	orig.Add(&k, 100)
	t2 := vec(values.String("t"))
	orig.Set(&t2, values.Int(5))
	if !values.Eq(c.Get(&k), values.Int(11)) || !values.Eq(c.Get(&s), values.Int(20)) {
		t.Fatal("an update on the original reached the clone")
	}
	if c.Len() != 2 || !values.Eq(c.Get(&t2), Default) {
		t.Fatal("an insert on the original reached the clone")
	}

	// The store's copy-on-write rests on Clone: an in-place update through
	// one store leaves the other's entry as it was.
	st := NewStore()
	st.Set("v", values.Tuple{values.String("s")}, values.Int(1))
	sc := st.Clone()
	sc.Add("v", values.Tuple{values.String("s")}, 1)
	st.Set("v", values.Tuple{values.String("s")}, values.Int(7))
	if got := sc.Get("v", values.Tuple{values.String("s")}); !values.Eq(got, values.Int(2)) {
		t.Fatalf("clone reads %v, want 2", got)
	}
	if got := st.Get("v", values.Tuple{values.String("s")}); !values.Eq(got, values.Int(7)) {
		t.Fatalf("original reads %v, want 7", got)
	}
}

// Overwrites keep the first-insert index tuple and do not re-clone it.
func TestSetRetainsFirstIndex(t *testing.T) {
	var tbl Table
	idx := vec(values.Bool(true))
	tbl.Set(&idx, values.Int(1))
	first := tbl.Entries()[0].Idx
	// Eq-equal but distinct raw index: entry keeps the original.
	idx2 := vec(values.Int(1))
	tbl.Set(&idx2, values.Int(2))
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
		tbl.Set(&idx, values.Int(int64(i)))
	}
	es := tbl.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Idx.Key() > es[i].Idx.Key() {
			t.Fatalf("entries unsorted at %d", i)
		}
	}
}
