package state

import (
	"maps"
	"sync"
	"testing"
	"testing/quick"

	"snap/internal/values"
)

func idx(vs ...values.Value) values.Tuple { return values.Tuple(vs) }

func TestGetDefaults(t *testing.T) {
	st := NewStore()
	if got := st.Get("s", idx(values.Int(1))); !values.Eq(got, Default) {
		t.Fatalf("default read: %v", got)
	}
	var nilStore *Store
	if got := nilStore.Get("s", idx(values.Int(1))); !values.Eq(got, Default) {
		t.Fatalf("nil store read: %v", got)
	}
}

func TestSetGet(t *testing.T) {
	st := NewStore()
	st.Set("s", idx(values.IPv4(1, 1, 1, 1), values.Int(2)), values.Bool(true))
	if got := st.Get("s", idx(values.IPv4(1, 1, 1, 1), values.Int(2))); !got.True() {
		t.Fatalf("read back: %v", got)
	}
	// Different index reads default.
	if got := st.Get("s", idx(values.IPv4(1, 1, 1, 2), values.Int(2))); got.True() {
		t.Fatalf("wrong entry: %v", got)
	}
	// Different variable too.
	if got := st.Get("t", idx(values.IPv4(1, 1, 1, 1), values.Int(2))); got.True() {
		t.Fatal("variables must be independent")
	}
}

func TestAddCoercion(t *testing.T) {
	st := NewStore()
	st.Add("c", idx(values.Int(0)), 1) // absent (False) + 1
	if got := st.Get("c", idx(values.Int(0))); !values.Eq(got, values.Int(1)) {
		t.Fatalf("after ++: %v", got)
	}
	st.Add("c", idx(values.Int(0)), -1)
	st.Add("c", idx(values.Int(0)), -1)
	if got := st.Get("c", idx(values.Int(0))); !values.Eq(got, values.Int(-1)) {
		t.Fatalf("after --: %v", got)
	}
	// Adding to a string coerces to 0 first.
	st.Set("c", idx(values.Int(1)), values.String("x"))
	st.Add("c", idx(values.Int(1)), 5)
	if got := st.Get("c", idx(values.Int(1))); !values.Eq(got, values.Int(5)) {
		t.Fatalf("string coercion: %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	st := NewStore()
	st.Set("s", idx(values.Int(0)), values.Int(1))
	c := st.Clone()
	c.Set("s", idx(values.Int(0)), values.Int(2))
	c.Set("t", idx(values.Int(0)), values.Int(3))
	if got := st.Get("s", idx(values.Int(0))); !values.Eq(got, values.Int(1)) {
		t.Fatal("clone mutated the original")
	}
	if got := st.Get("t", idx(values.Int(0))); !values.Eq(got, Default) {
		t.Fatal("clone added variables to the original")
	}

	// Clones share entries until written, so every holder of a shared
	// variable must copy before its first write: interleave writes on the
	// original, a clone, and a clone of that clone, and check each store
	// sees exactly its own.
	cc := c.Clone()
	stores := []*Store{st, c, cc}
	want := []map[int64]int64{{0: 1}, {0: 2}, {0: 2}}
	for round := int64(1); round <= 3; round++ {
		for i, s := range stores[:3] {
			s.Set("s", idx(values.Int(round)), values.Int(100*round+int64(i)))
			want[i][round] = 100*round + int64(i)
			s.Add("s", idx(values.Int(0)), int64(i+1))
			want[i][0] += int64(i + 1)
		}
		// A clone taken mid-sequence shares again and is never written: the
		// later rounds must leave it as it was.
		stores = append(stores, stores[1].Clone())
		want = append(want, maps.Clone(want[1]))
	}
	for i, s := range stores {
		if n := len(s.Entries("s")); n != len(want[i]) {
			t.Fatalf("store %d holds %d entries of s, want %d", i, n, len(want[i]))
		}
		for k, v := range want[i] {
			if got := s.Get("s", idx(values.Int(k))); !values.Eq(got, values.Int(v)) {
				t.Fatalf("store %d: s[%d] = %v, want %d", i, k, got, v)
			}
		}
	}
	if got := cc.Get("t", idx(values.Int(0))); !values.Eq(got, values.Int(3)) {
		t.Fatal("clone of a clone lost an unwritten variable")
	}
}

// TestConcurrentClones: any number of goroutines may clone one store at
// once and write their clones, as the oracle and the engine's snapshot
// readers do. Run under -race.
func TestConcurrentClones(t *testing.T) {
	st := NewStore()
	for i := int64(0); i < 64; i++ {
		st.Set("s", idx(values.Int(i)), values.Int(i))
		st.Set("t", idx(values.Int(i)), values.Int(-i))
	}
	var wg sync.WaitGroup
	for g := int64(0); g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				c := st.Clone()
				c.Add("s", idx(values.Int(g)), 1000)
				if got := c.Get("s", idx(values.Int(g))); !values.Eq(got, values.Int(g+1000)) {
					t.Errorf("goroutine %d: clone reads %v after its own write", g, got)
				}
				if !c.VarEqual(st, "t") {
					t.Errorf("goroutine %d: unwritten variable differs from the original", g)
				}
			}
		}()
	}
	wg.Wait()
	for i := int64(0); i < 64; i++ {
		if got := st.Get("s", idx(values.Int(i))); !values.Eq(got, values.Int(i)) {
			t.Fatalf("original s[%d] = %v after concurrent clones wrote theirs", i, got)
		}
	}
}

// TestVarEqualTreatsDefaultAsAbsent: writing the default value is
// indistinguishable from never writing.
func TestVarEqualTreatsDefaultAsAbsent(t *testing.T) {
	a := NewStore()
	b := NewStore()
	a.Set("s", idx(values.Int(0)), values.Bool(false))
	if !a.VarEqual(b, "s") || !b.VarEqual(a, "s") {
		t.Fatal("explicit default must equal absent")
	}
	a.Set("s", idx(values.Int(0)), values.Int(0))
	if !a.VarEqual(b, "s") {
		t.Fatal("Int(0) coerces to the False default")
	}
	a.Set("s", idx(values.Int(0)), values.Int(7))
	if a.VarEqual(b, "s") || b.VarEqual(a, "s") {
		t.Fatal("distinct values must differ")
	}
	// Wide indices compare the same way.
	wide := idx(values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(5))
	a.Set("w", wide, values.Int(0))
	if !a.VarEqual(b, "w") || !b.VarEqual(a, "w") {
		t.Fatal("explicit default at a wide index must equal absent")
	}
	b.Set("w", wide, values.Int(2))
	if a.VarEqual(b, "w") || b.VarEqual(a, "w") {
		t.Fatal("distinct wide values must differ")
	}
}

func TestEqualAcrossVariables(t *testing.T) {
	a := NewStore()
	b := NewStore()
	a.Set("x", idx(values.Int(1)), values.Int(5))
	if a.Equal(b) {
		t.Fatal("stores differ")
	}
	b.Set("x", idx(values.Int(1)), values.Int(5))
	if !a.Equal(b) {
		t.Fatal("stores equal")
	}
	// Variable present only as defaults on one side.
	b.Set("y", idx(values.Int(0)), values.Bool(false))
	if !a.Equal(b) {
		t.Fatal("default-only variable must not break equality")
	}
}

func TestEntriesSorted(t *testing.T) {
	st := NewStore()
	st.Set("s", idx(values.Int(3)), values.Int(1))
	st.Set("s", idx(values.Int(1)), values.Int(2))
	st.Set("s", idx(values.Int(2)), values.Int(3))
	es := st.Entries("s")
	if len(es) != 3 {
		t.Fatalf("entries: %v", es)
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].Idx.Key() > es[i].Idx.Key() {
			t.Fatal("entries must be sorted by index key")
		}
	}
}

func TestCopyVar(t *testing.T) {
	src := NewStore()
	src.Set("s", idx(values.Int(0)), values.Int(9))
	dst := NewStore()
	dst.Set("s", idx(values.Int(1)), values.Int(1))
	dst.CopyVar(src, "s")
	if got := dst.Get("s", idx(values.Int(1))); !values.Eq(got, Default) {
		t.Fatal("CopyVar must overwrite the whole variable")
	}
	if got := dst.Get("s", idx(values.Int(0))); !values.Eq(got, values.Int(9)) {
		t.Fatal("CopyVar lost the source binding")
	}
	// Copying an absent variable clears it.
	dst.CopyVar(NewStore(), "s")
	if got := dst.Get("s", idx(values.Int(0))); !values.Eq(got, Default) {
		t.Fatal("CopyVar of an absent variable must clear")
	}
}

// TestStoreKeepsRawAndWideIndices: a store keeps what its tables keep — a
// wide index beside narrow ones, and the raw index tuple an entry was
// first written with.
func TestStoreKeepsRawAndWideIndices(t *testing.T) {
	st := NewStore()
	st.Set("v", idx(values.Bool(true)), values.Int(7))
	st.Set("v", idx(values.IPv4(10, 0, 0, 1), values.Int(80)), values.Bool(true))
	wide := idx(values.Int(1), values.Int(2), values.Int(3), values.Int(4), values.Int(5))
	st.Set("v", wide, values.String("w"))
	if n := len(st.Entries("v")); n != 3 {
		t.Fatalf("entries: %d, want 3", n)
	}
	if got := st.Get("v", wide); !values.Eq(got, values.String("w")) {
		t.Fatalf("wide read: %v", got)
	}
	// The bool-indexed entry still renders True.
	found := false
	for _, e := range st.Entries("v") {
		if len(e.Idx) == 1 && e.Idx[0] == values.Bool(true) {
			found = true
		}
	}
	if !found {
		t.Fatal("raw bool index lost")
	}
}

// TestTablesEnterAndLeaveShared: a table given to a store with SetTable or
// taken from it with Table is shared, so the store copies it before its
// next write and the other holder's table stays as it was.
func TestTablesEnterAndLeaveShared(t *testing.T) {
	var tbl Table
	tbl.SetTuple(idx(values.Int(1)), values.Int(1))
	st := NewStore()
	st.SetTable("v", tbl)
	st.Add("v", idx(values.Int(1)), 1)
	st.Set("v", idx(values.Int(2)), values.Int(5))
	if tbl.Len() != 1 || !values.Eq(tbl.Entries()[0].Val, values.Int(1)) {
		t.Fatal("writing through the store changed the table it was given")
	}
	out := st.Table("v")
	st.Set("v", idx(values.Int(3)), values.Int(9))
	if out.Len() != 2 || st.Len("v") != 3 {
		t.Fatalf("taken table holds %d entries, store %d; want 2 and 3", out.Len(), st.Len("v"))
	}

	c := st.Clone()
	if !c.Shares(st, "v") {
		t.Fatal("a clone must share the unwritten table")
	}
	c.Set("v", idx(values.Int(4)), values.Int(1))
	if c.Shares(st, "v") || st.Len("v") != 3 {
		t.Fatal("a written clone must hold its own table")
	}
	st.SetTable("v", Table{})
	if len(st.Vars()) != 0 {
		t.Fatalf("an empty table must remove the variable: %v", st.Vars())
	}
}

func TestLogConsistency(t *testing.T) {
	l1, l2 := NewLog(), NewLog()
	l1.Read("a")
	l2.Read("a")
	if !Consistent(l1, l2) {
		t.Fatal("read/read is consistent")
	}
	l2.Write("a")
	if Consistent(l1, l2) || Consistent(l2, l1) {
		t.Fatal("read/write conflicts both ways")
	}
	l3, l4 := NewLog(), NewLog()
	l3.Write("b")
	l4.Write("b")
	if Consistent(l3, l4) {
		t.Fatal("write/write conflicts")
	}
	if vs := ConflictVars(l3, l4); len(vs) != 1 || vs[0] != "b" {
		t.Fatalf("conflict vars: %v", vs)
	}
}

// TestStoreSetGetProperty: reading any written index returns the written
// value; unrelated indices are untouched.
func TestStoreSetGetProperty(t *testing.T) {
	f := func(i1, i2 int8, v int16) bool {
		st := NewStore()
		st.Set("s", idx(values.Int(int64(i1))), values.Int(int64(v)))
		got := st.Get("s", idx(values.Int(int64(i1))))
		if !values.Eq(got, values.Int(int64(v))) {
			return false
		}
		if i1 != i2 {
			other := st.Get("s", idx(values.Int(int64(i2))))
			// Int(0) written to i1 is irrelevant to i2 — i2 is always default.
			return values.Eq(other, Default)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

func TestStringDeterministic(t *testing.T) {
	st := NewStore()
	st.Set("b", idx(values.Int(1)), values.Int(2))
	st.Set("a", idx(values.Int(2)), values.Int(1))
	if st.String() != st.Clone().String() {
		t.Fatal("rendering must be deterministic")
	}
}
