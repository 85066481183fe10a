// Package state implements SNAP's global state: a dictionary from state
// variables (arrays) to key-value mappings, persistent across packets (§3).
//
// A state variable is a mapping from index tuples (evaluated from packet
// fields) to scalar values. Entries that were never written read as the
// default value, boolean False: the paper's programs uniformly treat absent
// entries as "not seen" flags or zero counters, and the increment/decrement
// operators coerce non-integers (including False) to 0 via values.AsInt.
package state

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"snap/internal/values"
)

// Default is the value read from a state entry that has never been written.
var Default = values.Bool(false)

// Entry is one key-value binding of a state variable, retaining the raw
// index tuple so data-plane tables can be dumped and diffed.
type Entry struct {
	Idx values.Tuple
	Val values.Value
}

// Store holds the contents of every state variable: one Table per
// variable, the representation the data plane's VMs run on too, so a store
// and a switch exchange whole tables instead of entries. The zero value is
// an empty store ready to use.
//
// Clone, CopyVar, SetTable and Table share a variable's table instead of
// copying it: a table that more than one holder may see is marked shared
// and never written through this store again, and whichever store writes
// the variable next copies that one table first. The mark is an atomic
// that is only ever set, so goroutines may Clone (or read) one store
// concurrently; writes need the caller's serialization, as they always
// did.
type Store struct {
	vars map[string]*varTable
}

// varTable is one variable's table and its copy-on-write mark.
type varTable struct {
	t      Table
	shared atomic.Bool
}

// none is the table an absent variable reads as. It is never written.
var none Table

// writable returns variable s's table for writing: created when absent,
// copied when another holder may see it too.
func (st *Store) writable(s string) *Table {
	if st.vars == nil {
		st.vars = make(map[string]*varTable)
	}
	vt, ok := st.vars[s]
	switch {
	case !ok:
		vt = &varTable{}
		st.vars[s] = vt
	case vt.shared.Load():
		vt = &varTable{t: vt.t.Clone()}
		st.vars[s] = vt
	}
	return &vt.t
}

// read returns variable s's table for reading; an absent variable reads as
// an empty table.
func (st *Store) read(s string) *Table {
	if st != nil {
		if vt, ok := st.vars[s]; ok {
			return &vt.t
		}
	}
	return &none
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Get reads s[idx], returning Default for absent entries.
func (st *Store) Get(s string, idx values.Tuple) values.Value {
	if v, ok := st.Lookup(s, idx); ok {
		return v
	}
	return Default
}

// Lookup reads s[idx] and reports whether the entry exists; an entry once
// written exists even when it holds Default.
func (st *Store) Lookup(s string, idx values.Tuple) (values.Value, bool) {
	e, ok := st.read(s).lookup(idx)
	return e.Val, ok
}

// Set writes s[idx] ← v. The entry retains the index tuple it was first
// written with; overwrites update the value in place instead of re-cloning
// the tuple, so an entry costs one index copy per lifetime, not per write.
func (st *Store) Set(s string, idx values.Tuple, v values.Value) {
	st.writable(s).SetTuple(idx, v)
}

// Add implements s[idx]++ / s[idx]-- with the given delta, coercing the
// current value to an integer.
func (st *Store) Add(s string, idx values.Tuple, delta int64) {
	cur := st.Get(s, idx)
	st.Set(s, idx, values.Int(cur.AsInt()+delta))
}

// Clone returns an independent copy of the store, used to evaluate parallel
// compositions from a common starting state. It costs one step per variable:
// the tables are shared until either side writes them.
func (st *Store) Clone() *Store {
	c := NewStore()
	if st == nil || st.vars == nil {
		return c
	}
	c.vars = make(map[string]*varTable, len(st.vars))
	for s, vt := range st.vars {
		vt.shared.Store(true)
		c.vars[s] = vt
	}
	return c
}

// SetTable makes t the contents of variable s as it is, reading no entry.
// t enters shared: the store copies it before writing s, so whoever else
// holds t keeps it unchanged. An empty t removes s.
func (st *Store) SetTable(s string, t Table) {
	if t.Len() == 0 {
		st.share(s, nil)
	} else {
		st.share(s, &varTable{t: t})
	}
}

// share makes vt variable s's table, marked shared; nil removes s.
func (st *Store) share(s string, vt *varTable) {
	if vt == nil {
		delete(st.vars, s)
		return
	}
	if st.vars == nil {
		st.vars = make(map[string]*varTable)
	}
	vt.shared.Store(true)
	st.vars[s] = vt
}

// Table returns variable s's table as it is, copying no entry, and marks
// it shared: the store copies it before writing s again, so the caller may
// take the table over.
func (st *Store) Table(s string) Table {
	if st != nil {
		if vt, ok := st.vars[s]; ok {
			vt.shared.Store(true)
			return vt.t
		}
	}
	return Table{}
}

// Shares reports whether st and other hold variable s in one table: one of
// them passed it to the other (Clone, CopyVar) and neither has written it
// since.
func (st *Store) Shares(other *Store, s string) bool {
	if st == nil || other == nil {
		return false
	}
	a, ok := st.vars[s]
	return ok && a == other.vars[s]
}

// Len returns the number of entries variable s holds.
func (st *Store) Len(s string) int { return st.read(s).Len() }

// VarEqual reports whether variable s has identical contents in both stores
// (treating absent entries as Default).
func (st *Store) VarEqual(other *Store, s string) bool {
	return st.read(s).equal(other.read(s))
}

// Vars returns the names of all variables with at least one entry, sorted.
func (st *Store) Vars() []string {
	if st == nil {
		return nil
	}
	names := make([]string, 0, len(st.vars))
	for s := range st.vars {
		names = append(names, s)
	}
	sort.Strings(names)
	return names
}

// Entries returns the bindings of variable s sorted by index key.
func (st *Store) Entries(s string) []Entry { return st.read(s).Entries() }

// CopyVar overwrites variable s in st with its contents in src, shared the
// way Clone shares them. Used to merge parallel evaluation results
// variable-by-variable.
func (st *Store) CopyVar(src *Store, s string) {
	var vt *varTable
	if src != nil {
		vt = src.vars[s]
	}
	st.share(s, vt)
}

// Equal reports whether both stores have identical contents for every
// variable appearing in either.
func (st *Store) Equal(other *Store) bool {
	for _, s := range st.Vars() {
		if !st.VarEqual(other, s) {
			return false
		}
	}
	// Variables only other holds; a variable a store holds has entries.
	for _, s := range other.Vars() {
		if st.Len(s) == 0 && !st.VarEqual(other, s) {
			return false
		}
	}
	return true
}

// String renders the store contents deterministically.
func (st *Store) String() string {
	var b strings.Builder
	for _, s := range st.Vars() {
		for _, e := range st.Entries(s) {
			fmt.Fprintf(&b, "%s%s = %s\n", s, e.Idx, e.Val)
		}
	}
	return b.String()
}

// Log records which state variables a policy evaluation read (R s) and
// wrote (W s), per the formal semantics (Appendix A). Logs drive the
// consistency checks of parallel and sequential composition.
type Log struct {
	Reads  map[string]bool
	Writes map[string]bool
}

// NewLog returns an empty log.
func NewLog() Log {
	return Log{Reads: map[string]bool{}, Writes: map[string]bool{}}
}

// Read records R s.
func (l Log) Read(s string) { l.Reads[s] = true }

// Write records W s.
func (l Log) Write(s string) { l.Writes[s] = true }

// Union merges another log into l.
func (l Log) Union(other Log) {
	for s := range other.Reads {
		l.Reads[s] = true
	}
	for s := range other.Writes {
		l.Writes[s] = true
	}
}

// Consistent implements consistent(l1, l2): no variable written by one log
// may be read or written by the other.
func Consistent(l1, l2 Log) bool {
	for s := range l1.Writes {
		if l2.Reads[s] || l2.Writes[s] {
			return false
		}
	}
	for s := range l2.Writes {
		if l1.Reads[s] {
			return false
		}
	}
	return true
}

// ConflictVars lists the variables that make two logs inconsistent, for
// error messages.
func ConflictVars(l1, l2 Log) []string {
	set := map[string]bool{}
	for s := range l1.Writes {
		if l2.Reads[s] || l2.Writes[s] {
			set[s] = true
		}
	}
	for s := range l2.Writes {
		if l1.Reads[s] {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}
