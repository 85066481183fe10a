// Package psmap implements packet-state mapping (§4.3 and Appendix E of the
// paper): traversing a program's xFDD from root to leaves to determine, for
// every OBS ingress/egress port pair, which state variables the pair's
// packets read or write. The result feeds the placement-and-routing
// optimization (§4.4) as the S_uv input.
//
// Flows whose egress cannot be determined (paths that drop the packet after
// touching state, or leaves that never assign an outport) are attributed to
// every candidate egress, the conservative counterpart of the paper's
// Appendix D treatment; composing an assumption policy (§4.3) narrows the
// ingress sets the same way it does in the paper.
package psmap

import (
	"slices"
	"sort"

	"snap/internal/deps"
	"snap/internal/pkt"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// Mapping is the packet-state mapping: state variables needed per ordered
// OBS port pair, plus the set of variables needed by any flow at all.
type Mapping struct {
	// Vars[uv] is the set of state variables flows from u to v require.
	Vars map[[2]int]map[string]bool
	// All is the union over pairs.
	All map[string]bool
}

// StateSeq returns the pair's variables in dependency order — the order in
// which the flow must traverse them.
func (m *Mapping) StateSeq(u, v int, order *deps.Order) []string {
	return orderedVars(m.Vars[[2]int{u, v}], order)
}

// orderedVars sorts a variable set by dependency position, looking each
// position up once (the sets are tiny, so insertion sort on the decorated
// pairs beats sort.Slice with map lookups in the comparator).
func orderedVars(set map[string]bool, order *deps.Order) []string {
	if len(set) == 0 {
		return nil
	}
	type decorated struct {
		v   string
		pos int
	}
	dec := make([]decorated, 0, len(set))
	for s := range set {
		dec = append(dec, decorated{v: s, pos: order.Pos[s]})
	}
	for i := 1; i < len(dec); i++ {
		for j := i; j > 0 && dec[j].pos < dec[j-1].pos; j-- {
			dec[j], dec[j-1] = dec[j-1], dec[j]
		}
	}
	out := make([]string, len(dec))
	for i, d := range dec {
		out[i] = d.v
	}
	return out
}

// Pairs returns the port pairs that need at least one state variable,
// sorted.
func (m *Mapping) Pairs() [][2]int {
	out := make([][2]int, 0, len(m.Vars))
	for k, set := range m.Vars {
		if len(set) > 0 {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Build computes the packet-state mapping of a diagram over the given OBS
// port ids. It walks every root-to-leaf path, tracking the feasible ingress
// ports (narrowed by inport tests) and the state variables read by tests on
// the path; at each leaf, the variables written by each action sequence are
// attributed to the flow(s) that sequence emits.
//
// Hash-consed diagrams are DAGs with heavily shared leaves; the walk keys a
// memo map by leaf pointer so per-sequence facts (written variables, egress
// ports) are derived once per unique leaf rather than once per path.
func Build(d *xfdd.Diagram, ports []int) *Mapping {
	sorted := slices.Compact(slices.Sorted(slices.Values(ports)))
	b := &builder{
		m:        &Mapping{Vars: map[[2]int]map[string]bool{}, All: map[string]bool{}},
		allPorts: sorted,
		leafInfo: map[*xfdd.Diagram][]leafEntry{},
	}
	b.walk(d, sorted, nil)
	return b.m
}

// builder carries one walk's output and its memoized per-leaf facts.
type builder struct {
	m        *Mapping
	allPorts []int
	leafInfo map[*xfdd.Diagram][]leafEntry
}

// leafEntry caches what one leaf sequence contributes: the state variables
// it writes and the egress ports its emitted packet(s) can take.
type leafEntry struct {
	writes []string
	egress []int
}

func (b *builder) entriesOf(leaf *xfdd.Diagram) []leafEntry {
	if e, ok := b.leafInfo[leaf]; ok {
		return e
	}
	entries := make([]leafEntry, len(leaf.Seqs))
	for i, seq := range leaf.Seqs {
		entries[i] = leafEntry{writes: seq.StateVars(), egress: egressOf(seq, b.allPorts)}
	}
	b.leafInfo[leaf] = entries
	return entries
}

// walk visits d with inports, the sorted feasible ingress ports, which the
// walk never modifies: an inport test narrows them to fresh slices.
func (b *builder) walk(d *xfdd.Diagram, inports []int, reads []string) {
	if len(inports) == 0 {
		return
	}
	if !d.IsLeaf() {
		readsHere := reads
		trueIn, falseIn := inports, inports
		switch t := d.Test.(type) {
		case xfdd.STest:
			// The read happens on both outcomes: every packet reaching this
			// node consults the variable.
			readsHere = append(append([]string(nil), reads...), t.Var)
		case xfdd.FVTest:
			if t.Field == pkt.Inport && t.Val.Kind == values.KindInt {
				p := int(t.Val.Num)
				trueIn = nil
				if i, ok := slices.BinarySearch(inports, p); ok {
					trueIn = []int{p}
					falseIn = slices.Delete(slices.Clone(inports), i, i+1)
				}
			}
		}
		b.walk(d.True, trueIn, readsHere)
		b.walk(d.False, falseIn, readsHere)
		return
	}

	for _, entry := range b.entriesOf(d) {
		if len(reads) == 0 && len(entry.writes) == 0 {
			continue
		}
		for _, u := range inports {
			for _, v := range entry.egress {
				if u == v {
					continue
				}
				key := [2]int{u, v}
				set := b.m.Vars[key]
				if set == nil {
					set = map[string]bool{}
					b.m.Vars[key] = set
				}
				for _, s := range reads {
					set[s] = true
					b.m.All[s] = true
				}
				for _, s := range entry.writes {
					set[s] = true
					b.m.All[s] = true
				}
			}
		}
	}
}

// egressOf determines the egress ports of one leaf sequence: the last
// outport assignment if present; otherwise (dropped or undetermined) every
// port, conservatively.
func egressOf(seq xfdd.ActionSeq, allPorts []int) []int {
	out := -1
	for _, a := range seq {
		if a.Kind == xfdd.ActModify && a.Field == pkt.Outport && a.Val.Kind == values.KindInt {
			out = int(a.Val.Num)
		}
		if a.Kind == xfdd.ActDrop {
			out = -1 // dropped: egress unknown; fall through to conservative
			break
		}
	}
	if out >= 0 {
		for _, p := range allPorts {
			if p == out {
				return []int{out}
			}
		}
		return nil // assigned to a port outside the OBS: never exits
	}
	return allPorts
}
