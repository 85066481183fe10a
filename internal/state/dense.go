// Dense state tables: the one representation of a state variable's
// contents, for the compiled data plane and the control plane alike.
//
// Table keys entries by a fixed-size comparable Key whose elements are
// canonicalized values (values.Canon), so a lookup is a single Go map
// access with zero allocations and the same collision classes as the
// Tuple.Key() string encoding (two tuples share a Key iff their
// Tuple.Key()s are equal). The linked NetASM VM runs on Tables directly,
// and a Store (store.go) is a name → Table map, so switches, snapshots,
// migrations and shard merges pass whole tables between them.
//
// Index tuples wider than values.MaxVec — the 5-tuple flow key of five
// catalogue apps (conn-affinity, elephant-flows, flow-size-sampling,
// snort-flowbits, tcp-state-machine) — take a string-keyed overflow map,
// keeping the fast path honest without losing generality.
//
// Each entry retains the raw (uncanonicalized) index tuple it was first
// written with, so dumps and Entries order (by Tuple.Key()) read the same
// whichever path wrote an entry.
package state

import (
	"maps"
	"sort"

	"snap/internal/values"
)

// Key is the comparable fast-path index of one state entry: the index
// tuple, canonicalized element-wise so that == coincides with the
// semantic tuple equality the string keys encode. The elements' fields are
// stored by field rather than as values.Values: the numeric fields form one
// padding-free run that a map hashes and compares in one step, and the key
// stays small enough (112 bytes) for Go maps to hold it inline.
type Key struct {
	num  [values.MaxVec]int64
	kind [values.MaxVec]values.Kind
	plen [values.MaxVec]uint8
	n    uint8
	str  [values.MaxVec]string
}

// KeyOf canonicalizes an inline vector into a map key.
func KeyOf(v values.Vec) Key {
	var k Key
	k.n = uint8(v.Len())
	for i := 0; i < v.Len(); i++ {
		c := values.Canon(v.At(i))
		k.num[i], k.kind[i], k.plen[i], k.str[i] = c.Num, c.Kind, c.Len, c.Str
	}
	return k
}

// KeyOfTuple is KeyOf for slice tuples; ok is false when the tuple is too
// wide for the fast path.
func KeyOfTuple(t values.Tuple) (Key, bool) {
	v, ok := values.VecOf(t)
	if !ok {
		return Key{}, false
	}
	return KeyOf(v), true
}

// Table is the dense table of one state variable. The zero value is an
// empty table ready to use.
type Table struct {
	m    map[Key]Entry
	wide map[string]Entry // index arity > values.MaxVec
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.m) + len(t.wide) }

// Get reads the entry at k, Default when absent.
func (t *Table) Get(k Key) values.Value {
	if e, ok := t.m[k]; ok {
		return e.Val
	}
	return Default
}

// Set writes v at k, retaining raw as the entry's index tuple on first
// insert (overwrites keep the original tuple — same policy as Store.Set,
// one clone per entry lifetime, not per write).
func (t *Table) Set(k Key, raw values.Vec, v values.Value) {
	if e, ok := t.m[k]; ok {
		e.Val = v
		t.m[k] = e
		return
	}
	if t.m == nil {
		t.m = make(map[Key]Entry)
	}
	t.m[k] = Entry{Idx: raw.Tuple(), Val: v}
}

// Add applies the ++/-- delta at k (coercing the current value like
// Store.Add) in one lookup-and-store, returning the post-write value.
func (t *Table) Add(k Key, raw values.Vec, delta int64) values.Value {
	if e, ok := t.m[k]; ok {
		e.Val = values.Int(e.Val.AsInt() + delta)
		t.m[k] = e
		return e.Val
	}
	if t.m == nil {
		t.m = make(map[Key]Entry)
	}
	val := values.Int(Default.AsInt() + delta)
	t.m[k] = Entry{Idx: raw.Tuple(), Val: val}
	return val
}

// GetWide / SetWide / AddWide are the overflow path for index tuples wider
// than values.MaxVec, keyed by the canonical string encoding.

// GetWide reads the wide entry at idx, Default when absent.
func (t *Table) GetWide(idx values.Tuple) values.Value {
	if e, ok := t.wide[idx.Key()]; ok {
		return e.Val
	}
	return Default
}

// SetWide writes v at a wide index, cloning idx only on first insert.
func (t *Table) SetWide(idx values.Tuple, v values.Value) {
	k := idx.Key()
	if e, ok := t.wide[k]; ok {
		e.Val = v
		t.wide[k] = e
		return
	}
	if t.wide == nil {
		t.wide = make(map[string]Entry)
	}
	t.wide[k] = Entry{Idx: append(values.Tuple(nil), idx...), Val: v}
}

// AddWide applies a delta at a wide index, returning the post-write value.
func (t *Table) AddWide(idx values.Tuple, delta int64) values.Value {
	k := idx.Key()
	if e, ok := t.wide[k]; ok {
		e.Val = values.Int(e.Val.AsInt() + delta)
		t.wide[k] = e
		return e.Val
	}
	if t.wide == nil {
		t.wide = make(map[string]Entry)
	}
	val := values.Int(Default.AsInt() + delta)
	t.wide[k] = Entry{Idx: append(values.Tuple(nil), idx...), Val: val}
	return val
}

// lookup returns the entry at a slice-tuple index, false when absent
// (control-plane convenience; the VM uses Get/GetWide directly).
func (t *Table) lookup(idx values.Tuple) (Entry, bool) {
	if k, ok := KeyOfTuple(idx); ok {
		e, ok := t.m[k]
		return e, ok
	}
	e, ok := t.wide[idx.Key()]
	return e, ok
}

// SetTuple dispatches a slice-tuple write (control-plane convenience).
func (t *Table) SetTuple(idx values.Tuple, v values.Value) {
	if raw, ok := values.VecOf(idx); ok {
		t.Set(KeyOf(raw), raw, v)
	} else {
		t.SetWide(idx, v)
	}
}

// Clone returns an independent copy of the table. Entries' retained index
// tuples are shared: nothing mutates one after insert.
func (t *Table) Clone() Table {
	return Table{m: maps.Clone(t.m), wide: maps.Clone(t.wide)}
}

// Entries returns the table's bindings sorted by their index tuples'
// Tuple.Key() strings, building each string once.
func (t *Table) Entries() []Entry {
	type keyed struct {
		key string
		e   Entry
	}
	ks := make([]keyed, 0, t.Len())
	for _, e := range t.m {
		ks = append(ks, keyed{e.Idx.Key(), e})
	}
	for k, e := range t.wide {
		ks = append(ks, keyed{k, e})
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]Entry, len(ks))
	for i := range ks {
		out[i] = ks[i].e
	}
	return out
}

// equal reports whether t and o bind the same values, an absent entry
// reading as Default. A table shared between two stores is one pointer.
// When every entry of o has a counterpart in t, one pass over t decides.
func (t *Table) equal(o *Table) bool {
	if t == o {
		return true
	}
	n, ok := within(t.m, o.m)
	w, wok := within(t.wide, o.wide)
	if !ok || !wok {
		return false
	}
	if n+w == o.Len() {
		return true
	}
	_, ok = within(o.m, t.m)
	_, wok = within(o.wide, t.wide)
	return ok && wok
}

// within reports whether every entry of a reads the same in b, and how
// many of a's keys b holds.
func within[K comparable](a, b map[K]Entry) (n int, ok bool) {
	for k, e := range a {
		be, found := b[k]
		if found {
			n++
		} else {
			be.Val = Default
		}
		if !values.Eq(be.Val, e.Val) {
			return n, false
		}
	}
	return n, true
}
