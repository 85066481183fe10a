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
	"maps"
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

// Store holds the contents of every state variable. The zero value is an
// empty store ready to use.
//
// Clone and CopyVar share a variable's entries between stores instead of
// copying them: a varTable a second store has been given is marked shared
// and never written again, and whichever store writes the variable next
// copies that one variable first. The mark is an atomic that is only ever
// set, so goroutines may Clone (or read) one store concurrently; writes
// need the caller's serialization, as they always did.
type Store struct {
	vars map[string]*varTable
}

// varTable is one variable's entries, keyed by Tuple.Key().
type varTable struct {
	m      map[string]Entry
	shared atomic.Bool
}

// writable returns variable s's table for writing: created when absent,
// copied when another store may hold it too.
func (st *Store) writable(s string) map[string]Entry {
	if st.vars == nil {
		st.vars = make(map[string]*varTable)
	}
	vt, ok := st.vars[s]
	switch {
	case !ok:
		vt = &varTable{m: make(map[string]Entry)}
		st.vars[s] = vt
	case vt.shared.Load():
		vt = &varTable{m: maps.Clone(vt.m)}
		st.vars[s] = vt
	}
	return vt.m
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// Get reads s[idx], returning Default for absent entries.
func (st *Store) Get(s string, idx values.Tuple) values.Value {
	if e, ok := st.varMap(s)[idx.Key()]; ok {
		return e.Val
	}
	return Default
}

// Set writes s[idx] ← v. The entry retains the index tuple it was first
// written with; overwrites update the value in place instead of re-cloning
// the tuple, so an entry costs one index copy per lifetime, not per write.
func (st *Store) Set(s string, idx values.Tuple, v values.Value) {
	m := st.writable(s)
	k := idx.Key()
	if e, ok := m[k]; ok {
		e.Val = v
		m[k] = e
		return
	}
	m[k] = Entry{Idx: append(values.Tuple(nil), idx...), Val: v}
}

// Add implements s[idx]++ / s[idx]-- with the given delta, coercing the
// current value to an integer.
func (st *Store) Add(s string, idx values.Tuple, delta int64) {
	cur := st.Get(s, idx)
	st.Set(s, idx, values.Int(cur.AsInt()+delta))
}

// Clone returns an independent copy of the store, used to evaluate parallel
// compositions from a common starting state. It costs one step per variable:
// the entries are shared until either side writes them.
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

// VarEqual reports whether variable s has identical contents in both stores
// (treating absent entries as Default).
func (st *Store) VarEqual(other *Store, s string) bool {
	a := st.varMap(s)
	b := other.varMap(s)
	for k, e := range a {
		if be, ok := b[k]; ok {
			if !values.Eq(be.Val, e.Val) {
				return false
			}
		} else if !values.Eq(e.Val, Default) {
			return false
		}
	}
	for k, e := range b {
		if _, ok := a[k]; !ok && !values.Eq(e.Val, Default) {
			return false
		}
	}
	return true
}

func (st *Store) varMap(s string) map[string]Entry {
	if st == nil || st.vars == nil {
		return nil
	}
	if vt, ok := st.vars[s]; ok {
		return vt.m
	}
	return nil
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
func (st *Store) Entries(s string) []Entry {
	m := st.varMap(s)
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Entry, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// CopyVar overwrites variable s in st with its contents in src, shared the
// way Clone shares them. Used to merge parallel evaluation results
// variable-by-variable.
func (st *Store) CopyVar(src *Store, s string) {
	var vt *varTable
	if src != nil {
		vt = src.vars[s]
	}
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

// Equal reports whether both stores have identical contents for every
// variable appearing in either.
func (st *Store) Equal(other *Store) bool {
	seen := map[string]bool{}
	for _, s := range st.Vars() {
		seen[s] = true
		if !st.VarEqual(other, s) {
			return false
		}
	}
	for _, s := range other.Vars() {
		if !seen[s] && !st.VarEqual(other, s) {
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
