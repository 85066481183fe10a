package xfdd

import (
	"fmt"
	"sort"
	"strings"

	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/values"
)

// ActKind discriminates leaf actions.
type ActKind uint8

// Leaf action kinds: field modification, state write, increment, decrement,
// and drop. Drop only ever appears as the final action of a sequence: a
// sequence like "s[e] <- True; drop" updates state but emits no packet
// (udp-flood and the sampling policies rely on this).
const (
	ActModify ActKind = iota
	ActSet
	ActIncr
	ActDecr
	ActDrop
)

// Action is one action in a leaf action sequence: f ← v, s[e1] ← e2,
// s[e1]++, s[e1]-- or drop. (id is the empty sequence.)
type Action struct {
	Kind  ActKind
	Field pkt.Field    // ActModify
	Val   values.Value // ActModify
	Var   string       // state actions
	Idx   []syntax.Expr
	SVal  syntax.Expr // ActSet
}

// String renders the action in surface syntax.
func (a Action) String() string {
	switch a.Kind {
	case ActModify:
		return fmt.Sprintf("%s <- %s", a.Field, a.Val)
	case ActSet:
		return fmt.Sprintf("%s%s <- %s", a.Var, idxString(a.Idx), a.SVal)
	case ActIncr:
		return fmt.Sprintf("%s%s++", a.Var, idxString(a.Idx))
	case ActDecr:
		return fmt.Sprintf("%s%s--", a.Var, idxString(a.Idx))
	case ActDrop:
		return "drop"
	}
	return "?"
}

func idxString(idx []syntax.Expr) string {
	var b strings.Builder
	for _, e := range idx {
		fmt.Fprintf(&b, "[%s]", e)
	}
	return b.String()
}

func (a Action) key() string {
	switch a.Kind {
	case ActModify:
		return fmt.Sprintf("m%03d=%s", a.Field, a.Val.Key())
	case ActSet:
		return "s" + a.Var + IndexKey(a.Idx) + "=" + ExprKey(a.SVal)
	case ActIncr:
		return "i" + a.Var + IndexKey(a.Idx)
	case ActDrop:
		return "X"
	default:
		return "d" + a.Var + IndexKey(a.Idx)
	}
}

// ActionSeq is a sequence of actions applied left to right.
type ActionSeq []Action

// String renders the sequence; the empty sequence is id.
func (s ActionSeq) String() string {
	if len(s) == 0 {
		return "id"
	}
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = a.String()
	}
	return strings.Join(parts, "; ")
}

func (s ActionSeq) seqKey() string {
	parts := make([]string, len(s))
	for i, a := range s {
		parts[i] = a.key()
	}
	return strings.Join(parts, ";")
}

// Drops reports whether the sequence ends by dropping the packet.
func (s ActionSeq) Drops() bool {
	return len(s) > 0 && s[len(s)-1].Kind == ActDrop
}

// isStateAct reports whether a touches a state variable.
func (a Action) isStateAct() bool {
	return a.Kind == ActSet || a.Kind == ActIncr || a.Kind == ActDecr
}

// WritesVar reports whether the sequence writes state variable v.
func (s ActionSeq) WritesVar(v string) bool {
	for _, a := range s {
		if a.isStateAct() && a.Var == v {
			return true
		}
	}
	return false
}

// StateVars returns the state variables written by the sequence.
func (s ActionSeq) StateVars() []string {
	set := map[string]bool{}
	for _, a := range s {
		if a.isStateAct() {
			set[a.Var] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Diagram is an xFDD node: a branch when Test != nil, otherwise a leaf with
// a set of action sequences. The canonical drop leaf holds the single
// sequence [drop]; a leaf with one empty sequence is the identity.
//
// Every node is made by a Store, which hash-conses it: structurally equal
// nodes are pointer-equal, diagrams are DAGs rather than trees, and every
// node carries a store-scoped integer id. There is no hand-built node.
type Diagram struct {
	Test        Test
	True, False *Diagram
	Seqs        []ActionSeq

	// id is the hash-consing identity (1-based).
	id uint64
	// testID is the interned id of Test on branches.
	testID int32
	// seqIDs holds the interned ids of Seqs on leaves, parallel to Seqs.
	seqIDs []uint32
	// sup is the node's read-set: every field and state variable its tests
	// and leaf actions mention (see support).
	sup support
}

// NodeID returns the hash-consing identity of the node: nodes from the same
// store are structurally equal iff their ids are equal. Stores number their
// nodes from 1.
func (d *Diagram) NodeID() uint64 { return d.id }

// IsLeaf reports whether d is a leaf node.
func (d *Diagram) IsLeaf() bool { return d.Test == nil }

// IsDrop reports whether the leaf is the pure drop leaf.
func (d *Diagram) IsDrop() bool {
	return d.IsLeaf() && len(d.Seqs) == 1 && isPureDrop(d.Seqs[0])
}

// IsID reports whether the leaf is the pure identity leaf.
func (d *Diagram) IsID() bool {
	return d.IsLeaf() && len(d.Seqs) == 1 && len(d.Seqs[0]) == 0
}

func isPureDrop(s ActionSeq) bool {
	return len(s) == 1 && s[0].Kind == ActDrop
}

// Size returns the number of unique nodes (branches + leaves) in the
// diagram. Hash-consed diagrams are DAGs, so shared subgraphs count once —
// this is the number of decision nodes the backend materializes.
func (d *Diagram) Size() int {
	if d == nil {
		return 0
	}
	seen := map[*Diagram]bool{}
	n := 0
	var walk func(*Diagram)
	walk = func(x *Diagram) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		n++
		if !x.IsLeaf() {
			walk(x.True)
			walk(x.False)
		}
	}
	walk(d)
	return n
}

// Leaves calls fn once on every unique leaf of the diagram (shared leaves
// of a hash-consed DAG are visited a single time).
func (d *Diagram) Leaves(fn func(*Diagram)) {
	if d == nil {
		return
	}
	seen := map[*Diagram]bool{}
	var walk func(*Diagram)
	walk = func(x *Diagram) {
		if x == nil || seen[x] {
			return
		}
		seen[x] = true
		if x.IsLeaf() {
			fn(x)
			return
		}
		walk(x.True)
		walk(x.False)
	}
	walk(d)
}

// String renders the diagram as an indented tree.
func (d *Diagram) String() string {
	var b strings.Builder
	d.render(&b, 0)
	return b.String()
}

func (d *Diagram) render(b *strings.Builder, depth int) {
	indent := strings.Repeat("  ", depth)
	if d.IsLeaf() {
		parts := make([]string, len(d.Seqs))
		for i, s := range d.Seqs {
			parts[i] = s.String()
		}
		fmt.Fprintf(b, "%s{%s}\n", indent, strings.Join(parts, " , "))
		return
	}
	fmt.Fprintf(b, "%s%s ?\n", indent, d.Test)
	d.True.render(b, depth+1)
	d.False.render(b, depth+1)
}

// --- Evaluation ---
//
// Evaluating an xFDD against a packet and store defines its meaning and is
// used to check the compiler against the language semantics.

// Eval runs the diagram on a packet, returning output packets and a new
// store. State writes from distinct sequences in a leaf are guaranteed
// disjoint by the race check, so they commute.
func (d *Diagram) Eval(st *state.Store, in pkt.Packet) ([]pkt.Packet, *state.Store, error) {
	cur := d
	for !cur.IsLeaf() {
		pass, err := EvalTest(cur.Test, st, in)
		if err != nil {
			return nil, nil, err
		}
		if pass {
			cur = cur.True
		} else {
			cur = cur.False
		}
	}
	out := st.Clone()
	var pkts []pkt.Packet
	seen := map[string]bool{}
	for _, seq := range cur.Seqs {
		p, emitted, err := ApplySeq(seq, out, in)
		if err != nil {
			return nil, nil, err
		}
		if !emitted {
			continue
		}
		if k := p.Key(); !seen[k] {
			seen[k] = true
			pkts = append(pkts, p)
		}
	}
	return pkts, out, nil
}

// EvalTest evaluates one test against a packet and store.
func EvalTest(t Test, st *state.Store, in pkt.Packet) (bool, error) {
	switch x := t.(type) {
	case FVTest:
		return x.Val.Matches(in.Field(x.Field)), nil
	case FFTest:
		return values.Eq(in.Field(x.F1), in.Field(x.F2)), nil
	case STest:
		idx := evalIdx(x.Idx, in)
		want, err := semantics.EvalScalar(x.Val, in)
		if err != nil {
			return false, err
		}
		return values.Eq(st.Get(x.Var, idx), want), nil
	}
	return false, fmt.Errorf("unknown test %T", t)
}

// ApplySeq applies a leaf action sequence: field modifications rewrite the
// packet; state actions mutate the store in order, with expressions
// evaluated against the current packet. emitted is false when the sequence
// ends in drop (state writes still take effect).
func ApplySeq(seq ActionSeq, st *state.Store, in pkt.Packet) (out pkt.Packet, emitted bool, err error) {
	p := in
	for _, a := range seq {
		switch a.Kind {
		case ActModify:
			p = p.With(a.Field, a.Val)
		case ActSet:
			v, err := semantics.EvalScalar(a.SVal, p)
			if err != nil {
				return p, false, err
			}
			st.Set(a.Var, evalIdx(a.Idx, p), v)
		case ActIncr:
			st.Add(a.Var, evalIdx(a.Idx, p), 1)
		case ActDecr:
			st.Add(a.Var, evalIdx(a.Idx, p), -1)
		case ActDrop:
			return p, false, nil
		}
	}
	return p, true, nil
}

func evalIdx(idx []syntax.Expr, p pkt.Packet) values.Tuple {
	out := make(values.Tuple, 0, len(idx))
	for _, e := range idx {
		out = append(out, semantics.EvalExpr(e, p)...)
	}
	return out
}

// UnsupportedError reports a program outside the compilable fragment: a
// sequential composition whose state test can only be resolved with
// symbolic arithmetic (e.g. comparing a counter against a packet field
// after incrementing it). All Table 3 programs are within the fragment.
type UnsupportedError struct {
	Reason string
}

func (e *UnsupportedError) Error() string {
	return "unsupported composition: " + e.Reason
}

// --- Race detection ---

// RaceError reports a leaf whose parallel action sequences update the same
// state variable: the ambiguity §3 leaves undefined and §4.2 rejects.
type RaceError struct {
	Var  string
	Leaf *Diagram
}

func (e *RaceError) Error() string {
	return fmt.Sprintf("race condition: parallel updates to state variable %q (leaf {%v})", e.Var, e.Leaf)
}

// CheckRaces scans every leaf for two distinct sequences writing the same
// state variable.
func CheckRaces(d *Diagram) error {
	var err error
	d.Leaves(func(l *Diagram) {
		if err != nil || len(l.Seqs) < 2 {
			return
		}
		writers := map[string]int{}
		for _, s := range l.Seqs {
			for _, v := range s.StateVars() {
				writers[v]++
				if writers[v] > 1 {
					err = &RaceError{Var: v, Leaf: l}
					return
				}
			}
		}
	})
	return err
}
