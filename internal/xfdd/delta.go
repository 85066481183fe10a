// Delta translation: recompile a policy on a translator that has already
// compiled a previous revision, reusing the interned diagram of every
// fragment that survived the edit. ToXFDD consults the translator's
// fragment memo at every policy node, so an unchanged subprogram — however
// deep in the composition tree — resolves to its previous diagram pointer
// without re-running to-xfdd, and the apply caches then memoize the
// recomposition of the spine above it. A cold translation is the same walk
// on a fresh translator. A translator's memo stays valid for its lifetime:
// a fragment's diagram depends only on the fragment and the test order,
// both fixed per translator.
package xfdd

import "sort"

// Watermark returns the store's current node counter. Record it before a
// delta translation and pass it to ReuseOf afterwards to split the result
// diagram into nodes that existed before the edit and nodes the edit
// minted.
func (st *Store) Watermark() uint64 { return st.nodes }

// ReuseOf walks d once and reports how many of its unique nodes were
// interned at or before the watermark (reused from a previous
// translation) versus after it (fresh).
func ReuseOf(d *Diagram, watermark uint64) (reused, fresh int) {
	seen := map[*Diagram]bool{}
	var walk func(*Diagram)
	walk = func(d *Diagram) {
		if d == nil || seen[d] {
			return
		}
		seen[d] = true
		if d.id <= watermark {
			reused++
		} else {
			fresh++
		}
		walk(d.True)
		walk(d.False)
	}
	walk(d)
	return reused, fresh
}

// StructuralEqual compares two diagrams node by node, across stores:
// pointer identity means nothing here, tests compare by SameTest and
// leaves by their canonical action-sequence keys. It is the oracle for
// checking that a delta-translated diagram matches a cold-translated one.
func StructuralEqual(a, b *Diagram) bool {
	type pair struct{ a, b *Diagram }
	seen := map[pair]bool{}
	var eq func(a, b *Diagram) bool
	eq = func(a, b *Diagram) bool {
		if a == b {
			return true
		}
		if a == nil || b == nil {
			return false
		}
		p := pair{a, b}
		if seen[p] {
			return true // already on this comparison path or proven equal
		}
		seen[p] = true
		if a.IsLeaf() != b.IsLeaf() {
			return false
		}
		if a.IsLeaf() {
			// A leaf is a set of action sequences. Store.Leaf orders them
			// by interned seq id — first-seen order, so two stores with
			// different histories canonicalize the same set in different
			// orders. Compare as sorted key sets.
			if len(a.Seqs) != len(b.Seqs) {
				return false
			}
			ka, kb := make([]string, len(a.Seqs)), make([]string, len(b.Seqs))
			for i := range a.Seqs {
				ka[i] = a.Seqs[i].seqKey()
				kb[i] = b.Seqs[i].seqKey()
			}
			sort.Strings(ka)
			sort.Strings(kb)
			for i := range ka {
				if ka[i] != kb[i] {
					return false
				}
			}
			return true
		}
		return SameTest(a.Test, b.Test) && eq(a.True, b.True) && eq(a.False, b.False)
	}
	return eq(a, b)
}
