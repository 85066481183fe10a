// The link step: turning a portable Program into the executable form the
// VM actually runs.
//
// A Program as emitted by the compiler backend (internal/rules) is still
// half symbolic: state instructions name their variable by string and
// carry index/value expressions as syntax.Expr trees, which the original
// interpreter walked — and allocated under — on every packet. Linking
// resolves all of that once, at configuration-install time:
//
//   - variable names become dense ids in a VarSpace shared by every
//     switch of a plane (pending writes carry the id across switches, and
//     the engine's owner lookup is an array index instead of a map probe);
//   - owned variables additionally get a local table slot, an index into
//     the switch's dense state tables (state.Table), looked up by id: below
//     the linker a variable is a number;
//   - index expressions compile to flat extractors — a fixed sequence of
//     const|field-ref ops evaluated into an inline values.Vec, no
//     interface-tree walk, no allocation;
//   - scalar value expressions compile to a const or a single field read;
//   - branch targets, fork entries and the node-id→pc entry map become
//     int32 arrays;
//   - the widest fork is precomputed (the engine sizes its inboxes by it).
//
// Index tuples wider than values.MaxVec — the 5-tuple flow key of five
// catalogue apps — keep their syntax.Expr form and take the interpreter's
// slow path for exactly that instruction, so linking never changes
// semantics, only cost.
package netasm

import (
	"fmt"
	"sort"
	"strings"

	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// VarSpace is the dense id space of the state variables of one compiled
// plane. Ids are assigned by sorted name, so every switch linked against
// the same space — and the engine's owner array — agree on the mapping.
// The string names remain the canonical control-plane identity (snapshots,
// placement, replication); ids never leave the runtime.
type VarSpace struct {
	names []string
	ids   map[string]int
}

// NewVarSpace builds a space over the given names (deduplicated, sorted).
func NewVarSpace(names []string) *VarSpace {
	seen := make(map[string]bool, len(names))
	uniq := make([]string, 0, len(names))
	for _, n := range names {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	vs := &VarSpace{names: uniq, ids: make(map[string]int, len(uniq))}
	for i, n := range uniq {
		vs.ids[n] = i
	}
	return vs
}

// ID resolves a name, -1 when the space does not know it.
func (vs *VarSpace) ID(name string) int {
	if vs == nil {
		return -1
	}
	if id, ok := vs.ids[name]; ok {
		return id
	}
	return -1
}

// Name returns the name of id ("" when out of range).
func (vs *VarSpace) Name(id int) string {
	if vs == nil || id < 0 || id >= len(vs.names) {
		return ""
	}
	return vs.names[id]
}

// Len returns the number of variables in the space.
func (vs *VarSpace) Len() int {
	if vs == nil {
		return 0
	}
	return len(vs.names)
}

// Signature canonically identifies the space's name set. Two spaces with
// equal signatures assign identical ids (ids are by sorted name), so a
// program linked against one is valid against the other — the fact
// rules.Generator relies on to recall a cached image.
func (vs *VarSpace) Signature() string {
	if vs == nil {
		return ""
	}
	return strings.Join(vs.names, "\x00")
}

// exOp is one step of a flat index extractor: a constant or a packet
// field read.
type exOp struct {
	isField bool
	field   pkt.Field
	val     values.Value
}

// extractor is a compiled index expression: evaluating it is a loop over
// exOps filling an inline vector, allocation-free.
type extractor []exOp

// vec evaluates the extractor against a packet. The linker only builds
// extractors of arity ≤ values.MaxVec, so Push cannot fail.
func (x extractor) vec(p *pkt.Packet) values.Vec {
	var v values.Vec
	for i := range x {
		if x[i].isField {
			v.Push(p.Field(x[i].field))
		} else {
			v.Push(x[i].val)
		}
	}
	return v
}

// flattenExpr appends e's flat ops to dst. The expansion mirrors
// semantics.EvalExpr exactly: constants and field refs contribute one
// value, vectors concatenate their elements.
func flattenExpr(e syntax.Expr, dst extractor) extractor {
	switch x := e.(type) {
	case syntax.Const:
		return append(dst, exOp{val: x.Val})
	case syntax.FieldRef:
		return append(dst, exOp{isField: true, field: x.Field})
	case syntax.TupleExpr:
		for _, el := range x.Elems {
			dst = flattenExpr(el, dst)
		}
		return dst
	default:
		return dst
	}
}

// Scalar value sources for state writes and tests.
const (
	valNone  uint8 = iota
	valConst       // valC
	valField       // read valF from the packet
	valSlow        // semantics.EvalScalar on slowVal (non-scalar: runtime error)
)

// linstr is one linked instruction. Branch targets and state references
// are resolved; the slow* fields are populated only for instructions that
// fall back to the interpreter (wide index tuples, non-scalar values).
type linstr struct {
	op      Op
	act     xfdd.ActKind
	valMode uint8
	tbl     int32 // local state-table slot; -1 when not owned here
	varID   int32 // plane-global variable id
	field   pkt.Field
	field2  pkt.Field
	val     values.Value
	valF    pkt.Field
	valC    values.Value
	idx     extractor
	slowIdx []syntax.Expr // set instead of idx when the index is too wide
	slowVal syntax.Expr
	tpc     int32
	fpc     int32
	next    int32
	seqs    []int32
	resume  int32
}

// Linked is an executable program: the link-time image of a Program for
// one ownership set and one variable space. It is immutable and shared
// between every switch with the same program (rules already shares the
// Program across switches owning the same variable set).
type Linked struct {
	// Prog is the portable program this was linked from (disassembly,
	// diagnostics).
	Prog *Program

	vs     *VarSpace
	ins    []linstr
	entry  []int32  // node id → pc, -1 holes
	locals []string // local table slot → variable name, sorted
	slot   []int32  // variable id → local table slot, -1 when none
	owned  []uint64 // bitset of the variable ids the switch owns

	diags []string // link-time advisories (see Diagnostics)
}

// Diagnostics returns link-time advisories: conditions that do not change
// semantics but silently change cost, chiefly index tuples wider than
// values.MaxVec forcing the interpreter fallback. Each condition is
// reported once per program.
func (lp *Linked) Diagnostics() []string { return lp.diags }

// VarSpace returns the space the program was linked against.
func (lp *Linked) VarSpace() *VarSpace { return lp.vs }

// owns reports whether the switch owns variable id.
func (lp *Linked) owns(id int32) bool {
	return int(id>>6) < len(lp.owned) && lp.owned[id>>6]&(1<<(id&63)) != 0
}

// varID resolves a name in the program's space. Link is handed the plane's
// space, built from every program's variables, or the program's own, so a
// miss is a compiler bug.
func (lp *Linked) varID(name string) int32 {
	id := lp.vs.ID(name)
	if id < 0 {
		panic(fmt.Sprintf("netasm: variable %s is not in the variable space", name))
	}
	return int32(id)
}

// entryPC resolves an xFDD node id to its pc, -1 when the program has no
// entry for it.
func (lp *Linked) entryPC(node int) int {
	if node < 0 || node >= len(lp.entry) {
		return -1
	}
	return int(lp.entry[node])
}

// Link resolves a Program against a variable space and an ownership set.
// Every switch of one plane must link against the same space: pending
// writes carry variable ids between switches.
func Link(p *Program, vs *VarSpace, owns map[string]bool) *Linked {
	lp := &Linked{Prog: p, vs: vs, slot: make([]int32, vs.Len()), owned: make([]uint64, (vs.Len()+63)/64)}
	// Local tables: everything the switch owns, plus any variable its
	// local state instructions touch anyway — compiler-emitted programs
	// only reference owned variables there, but the interpreter tolerated
	// hand-built programs writing unowned state locally, and linking must
	// not turn that into an out-of-range table slot. Mark each such
	// variable with slot 0, then number them in id order, which is name
	// order.
	for i := range lp.slot {
		lp.slot[i] = -1
	}
	for v, ok := range owns {
		if ok {
			id := lp.varID(v)
			lp.owned[id>>6] |= 1 << (id & 63)
			lp.slot[id] = 0
		}
	}
	for _, ins := range p.Instrs {
		if ins.Op == OpBranchState || ins.Op == OpStateWrite {
			lp.slot[lp.varID(ins.Var)] = 0
		}
	}
	for id, s := range lp.slot {
		if s == 0 {
			lp.slot[id] = int32(len(lp.locals))
			lp.locals = append(lp.locals, vs.Name(id))
		}
	}

	maxNode := -1
	for node := range p.EntryOf {
		if node > maxNode {
			maxNode = node
		}
	}
	lp.entry = make([]int32, maxNode+1)
	for i := range lp.entry {
		lp.entry[i] = -1
	}
	for node, pc := range p.EntryOf {
		if node >= 0 {
			lp.entry[node] = int32(pc)
		}
	}

	lp.ins = make([]linstr, len(p.Instrs))
	wideIdx := 0 // instructions on the interpreter slow path
	firstWide := ""
	for pc, ins := range p.Instrs {
		li := linstr{
			op:     ins.Op,
			act:    ins.Act,
			tbl:    -1,
			field:  ins.Field,
			field2: ins.Field2,
			val:    ins.Val,
			tpc:    int32(ins.True),
			fpc:    int32(ins.False),
			next:   int32(ins.Next),
			resume: int32(ins.Resume),
		}
		if ins.Var != "" {
			li.varID = lp.varID(ins.Var)
			li.tbl = lp.slot[li.varID]
		}
		if len(ins.Idx) > 0 {
			var flat extractor
			for _, e := range ins.Idx {
				flat = flattenExpr(e, flat)
			}
			if len(flat) <= values.MaxVec {
				li.idx = flat
			} else {
				li.slowIdx = ins.Idx
			}
		}
		if ins.ValE != nil {
			flat := flattenExpr(ins.ValE, nil)
			switch {
			case len(flat) == 1 && flat[0].isField:
				li.valMode, li.valF = valField, flat[0].field
			case len(flat) == 1:
				li.valMode, li.valC = valConst, flat[0].val
			default:
				// Non-scalar value expression: preserved as a runtime
				// error, exactly like the interpreter.
				li.valMode, li.slowVal = valSlow, ins.ValE
			}
		}
		if ins.Op == OpFork {
			li.seqs = make([]int32, len(ins.Seqs))
			for i, s := range ins.Seqs {
				li.seqs[i] = int32(s)
			}
		}
		if li.slowIdx != nil {
			wideIdx++
			if firstWide == "" {
				firstWide = fmt.Sprintf("pc %d, variable %s", pc, ins.Var)
			}
		}
		lp.ins[pc] = li
	}
	if wideIdx > 0 {
		lp.diags = append(lp.diags, fmt.Sprintf(
			"%d state instruction(s) index by tuples wider than %d values and take the interpreter slow path (first at %s)",
			wideIdx, values.MaxVec, firstWide))
	}
	return lp
}

// soloSpace builds a private variable space for a switch linked outside a
// plane (unit tests, single-switch tools): everything the program
// references plus everything the switch owns.
func soloSpace(p *Program, owns map[string]bool) *VarSpace {
	var names []string
	for v := range owns {
		names = append(names, v)
	}
	for _, ins := range p.Instrs {
		if ins.Var != "" {
			names = append(names, ins.Var)
		}
	}
	return NewVarSpace(names)
}
