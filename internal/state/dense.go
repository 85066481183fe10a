// Dense fast-path state tables for the compiled data plane.
//
// The canonical Store (store.go) keys entries by the Tuple.Key() string —
// the right format for the control plane, where snapshots, migrations and
// shard merges want stable, order-able, human-auditable keys, but a per-
// packet tax on the data plane: every Get/Set builds a fresh key string.
// Table is the runtime representation the linked NetASM VM uses instead:
// one table per state variable, keyed by a fixed-size comparable Key whose
// elements are canonicalized values (values.Canon), so a lookup is a single
// Go map access with zero allocations and the same collision classes as
// the string encoding (two tuples share a Key iff their Tuple.Key()s are
// equal).
//
// Index tuples wider than values.MaxVec — the 5-tuple flow key of five
// catalogue apps (conn-affinity, elephant-flows, flow-size-sampling,
// snort-flowbits, tcp-state-machine) — take a string-keyed overflow map,
// keeping the fast path honest without losing generality.
//
// Tables convert losslessly to and from Store: each entry retains the raw
// (uncanonicalized) index tuple it was first written with, exactly like
// Store entries do, so dumps, replication reseeding and shard.Merge see
// the same bindings whichever representation the runtime used.
package state

import (
	"maps"
	"sort"

	"snap/internal/values"
)

// Key is the comparable fast-path index of one state entry: the index
// tuple, canonicalized element-wise so that == coincides with the
// semantic tuple equality the string keys encode.
type Key struct {
	n uint8
	a [values.MaxVec]values.Value
}

// KeyOf canonicalizes an inline vector into a map key.
func KeyOf(v values.Vec) Key {
	var k Key
	k.n = uint8(v.Len())
	for i := 0; i < v.Len(); i++ {
		k.a[i] = values.Canon(v.At(i))
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

// GetTuple dispatches a slice-tuple read to the right map (control-plane
// convenience; the VM uses Get/GetWide directly).
func (t *Table) GetTuple(idx values.Tuple) values.Value {
	if k, ok := KeyOfTuple(idx); ok {
		return t.Get(k)
	}
	return t.GetWide(idx)
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

// Entries returns the table's bindings sorted by canonical index key,
// matching Store.Entries order.
func (t *Table) Entries() []Entry {
	out := make([]Entry, 0, t.Len())
	for _, e := range t.m {
		out = append(out, e)
	}
	for _, e := range t.wide {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Idx.Key() < out[j].Idx.Key() })
	return out
}

// AddToStore dumps the table into st under variable name — the lossless
// dense→canonical converter (snapshots, migration, replication seeds).
func (t *Table) AddToStore(st *Store, name string) {
	for _, e := range t.m {
		st.Set(name, e.Idx, e.Val)
	}
	for _, e := range t.wide {
		st.Set(name, e.Idx, e.Val)
	}
}

// SeedFrom loads variable name's entries from a canonical store — the
// canonical→dense converter. Existing table contents are replaced.
func (t *Table) SeedFrom(st *Store, name string) {
	t.m = nil
	t.wide = nil
	for _, e := range st.Entries(name) {
		t.SetTuple(e.Idx, e.Val)
	}
}
