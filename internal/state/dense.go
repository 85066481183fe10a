// Dense state tables: the one representation of a state variable's
// contents, for the compiled data plane and the control plane alike.
//
// Table keys entries by a 40-byte comparable Key with no pointers in it,
// so a Go map hashes and compares it as plain memory: the index tuple's
// canonicalized numbers (values.Canon), and one word packing each
// element's kind and prefix length with the arity. A string element is
// keyed by the number its table gave that string when an entry first
// stored it. Two tuples share a Key in one table iff their Tuple.Key()s
// are equal, the collision classes of the string encoding. The map holds
// an index into the table's entry slice, so a write looks its key up once
// and updates the entry in place. The linked NetASM VM runs on Tables
// directly, and a Store (store.go) is a name → Table map, so switches,
// snapshots, migrations and shard merges pass whole tables between them.
//
// An index tuple wider than values.MaxVec (the 5-tuple flow key of five
// catalogue apps) is keyed the way a string element is: by the number its
// table gave the tuple's Tuple.Key() string, under a kind tag of its own.
//
// Each entry retains the raw (uncanonicalized) index tuple it was first
// written with, so dumps and Entries order (by Tuple.Key()) read the same
// whichever path wrote an entry.
package state

import (
	"maps"
	"slices"
	"sort"

	"snap/internal/values"
)

// Key is the comparable fast-path index of one state entry: the index
// tuple, canonicalized element-wise so that == coincides with the
// semantic tuple equality the string keys encode. num holds each
// element's number (a string's number in its table); meta holds element
// i's kind in bits 12i..12i+3 and its prefix length in bits 12i+4..12i+11,
// and the arity from bit 48. A key of arity above values.MaxVec holds, in
// num[0], the number of its tuple's Tuple.Key() string, and kind wideKind.
type Key struct {
	num  [values.MaxVec]int64
	meta uint64
}

// wideKind marks a wide key in element 0's kind bits: num[0] is then a
// key string's number, not a value's. A kind takes four bits of Key.meta
// and no value kind is wideKind, so with the arity it keeps a wide key
// apart from a string element that took the same number.
const wideKind = 15

const _ uint8 = wideKind - 1 - uint8(values.KindString) // every kind below wideKind

// Table is the dense table of one state variable. The zero value is an
// empty table ready to use.
//
// A Table value is a handle: copies alias one set of entries, as copies
// of a bare map would, because the map, the entries it indexes and the
// string numbers live behind one pointer that the first insert allocates.
type Table struct {
	d *dense
}

// dense is a Table's storage: m maps a Key to its entry in ents, and strs
// numbers the strings the table's keys hold, wide tuples' key strings
// among them.
type dense struct {
	m    map[Key]int32
	ents []Entry
	strs map[string]int64
}

// keyOf canonicalizes v into d's key. A string the table has never stored
// is numbered when add is set; otherwise ok is false, as no entry can hold
// it.
func (d *dense) keyOf(v *values.Vec, add bool) (k Key, ok bool) {
	n := v.Len()
	k.meta = uint64(n) << 48
	if n > values.MaxVec {
		var buf [128]byte
		s := v.AppendKey(buf[:0])
		id, found := d.strs[string(s)]
		if !found {
			if !add {
				return k, false
			}
			id = d.number(string(s))
		}
		k.num[0], k.meta = id, k.meta|wideKind
		return k, true
	}
	for i := 0; i < n; i++ {
		c := values.Canon(v.At(i))
		if c.Kind == values.KindString {
			id, found := d.strs[c.Str]
			if !found {
				if !add {
					return k, false
				}
				id = d.number(c.Str)
			}
			c.Num = id
		}
		k.num[i] = c.Num
		k.meta |= (uint64(c.Kind) | uint64(c.Len)<<4) << (12 * i)
	}
	return k, true
}

// number gives s, which d has not numbered, the next number.
func (d *dense) number(s string) int64 {
	if d.strs == nil {
		d.strs = make(map[string]int64)
	}
	id := int64(len(d.strs))
	d.strs[s] = id
	return id
}

// Len returns the number of entries.
func (t *Table) Len() int {
	if t.d == nil {
		return 0
	}
	return len(t.d.ents)
}

// find returns the position of v's entry in t.d.ents, false when absent.
// It writes nothing, so concurrent readers may share a table.
func (t *Table) find(v *values.Vec) (int32, bool) {
	if t.d == nil {
		return 0, false
	}
	k, ok := t.d.keyOf(v, false)
	if !ok {
		return 0, false
	}
	i, ok := t.d.m[k]
	return i, ok
}

// entry returns v's entry, inserting one that holds Default when absent.
// The entry retains v as its index tuple on insert (overwrites keep the
// original tuple: one clone per entry lifetime, not per write).
func (t *Table) entry(v *values.Vec) *Entry {
	if t.d == nil {
		t.d = &dense{m: make(map[Key]int32)}
	}
	d := t.d
	k, _ := d.keyOf(v, true)
	if i, ok := d.m[k]; ok {
		return &d.ents[i]
	}
	d.m[k] = int32(len(d.ents))
	d.ents = append(d.ents, Entry{Idx: v.Tuple(), Val: Default})
	return &d.ents[len(d.ents)-1]
}

// Get reads the entry at v, Default when absent.
func (t *Table) Get(v *values.Vec) values.Value {
	if i, ok := t.find(v); ok {
		return t.d.ents[i].Val
	}
	return Default
}

// Set writes val at v in one lookup.
func (t *Table) Set(v *values.Vec, val values.Value) { t.entry(v).Val = val }

// Add applies the ++/-- delta at v (coercing the current value like
// Store.Add) in one lookup, returning the post-write value.
func (t *Table) Add(v *values.Vec, delta int64) values.Value {
	e := t.entry(v)
	e.Val = values.Int(e.Val.AsInt() + delta)
	return e.Val
}

// lookup returns the entry at a slice-tuple index, false when absent
// (control-plane convenience; the VM uses Get directly).
func (t *Table) lookup(idx values.Tuple) (Entry, bool) {
	v := values.VecOf(idx)
	if i, ok := t.find(&v); ok {
		return t.d.ents[i], true
	}
	return Entry{}, false
}

// SetTuple writes at a slice-tuple index (control-plane convenience).
func (t *Table) SetTuple(idx values.Tuple, val values.Value) {
	v := values.VecOf(idx)
	t.Set(&v, val)
}

// Clone returns an independent copy of the table. The entries are
// copied, since writes update them in place; their retained index tuples
// are shared, as nothing mutates one after insert.
func (t *Table) Clone() Table {
	var c Table
	if d := t.d; d != nil {
		c.d = &dense{m: maps.Clone(d.m), ents: slices.Clone(d.ents), strs: maps.Clone(d.strs)}
	}
	return c
}

// Entries returns the table's bindings sorted by their index tuples'
// Tuple.Key() strings, building each string once.
func (t *Table) Entries() []Entry {
	type keyed struct {
		key string
		e   Entry
	}
	ks := make([]keyed, 0, t.Len())
	if t.d != nil {
		for _, e := range t.d.ents {
			ks = append(ks, keyed{e.Idx.Key(), e})
		}
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
	n, ok := within(t, o)
	if !ok {
		return false
	}
	if n == o.Len() {
		return true
	}
	_, ok = within(o, t)
	return ok
}

// within reports whether every entry of a reads the same in b, and how
// many of a's indices b holds. Each table numbers its strings itself, so
// a's entries are looked up in b by their index tuples, not a's keys.
func within(a, b *Table) (n int, ok bool) {
	if a.d == nil {
		return 0, true
	}
	for i := range a.d.ents {
		e := &a.d.ents[i]
		got := Default
		v := values.VecOf(e.Idx)
		if j, found := b.find(&v); found {
			n++
			got = b.d.ents[j].Val
		}
		if !values.Eq(got, e.Val) {
			return n, false
		}
	}
	return n, true
}
