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
//   - index expressions of any arity compile to flat extractors — a fixed
//     sequence of const|field-ref ops evaluated into a values.Vec, no
//     interface-tree walk, and no allocation up to values.MaxVec values;
//   - scalar value expressions compile to a const or a single field read,
//     and a non-scalar one to the error evaluating it raises;
//   - branch targets, fork entries and the node-id→pc entry map become
//     int32 arrays;
//   - the widest fork is precomputed (the engine sizes its inboxes by it);
//   - each false-edge run of at least chainMin field tests on one field
//     whose constants share a key class (numeric, exact IP, or canonical
//     prefixes of one length) collapses into one table lookup at the run's
//     head. The run ends at an overlapping key, a different field or key
//     class, or any other instruction; the members stay where they are, so
//     entries into the middle still work. A packet value outside the key
//     class takes the head's own branch and walks the run as before, and a
//     lookup is one step against MaxSteps.
package netasm

import (
	"fmt"
	"math/bits"
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

// fill evaluates the extractor against a packet into the empty vector v,
// in place. Only an extractor wider than values.MaxVec allocates, for the
// vector's spill.
func (x extractor) fill(v *values.Vec, p *pkt.Packet) {
	for i := range x {
		if x[i].isField {
			v.Push(p.Field(x[i].field))
		} else {
			v.Push(x[i].val)
		}
	}
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
	valConst       // val: a state op's constant (its Instr.Val is unused)
	valField       // read valF from the packet
	valErr         // a non-scalar expression: executing fails with err
)

// linstr is one linked instruction, its branch targets and state
// references resolved.
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
	idx     extractor
	err     error // valErr: the error the value expression raises
	tpc     int32
	fpc     int32
	next    int32
	seqs    []int32
	resume  int32
	tab     *chainTable // opChain: the collapsed run
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
}

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
		for _, e := range ins.Idx {
			li.idx = flattenExpr(e, li.idx)
		}
		if ins.ValE != nil {
			flat := flattenExpr(ins.ValE, nil)
			switch {
			case len(flat) == 1 && flat[0].isField:
				li.valMode, li.valF = valField, flat[0].field
			case len(flat) == 1:
				li.valMode, li.val = valConst, flat[0].val
			default:
				// Non-scalar value expression: a runtime error, in the
				// words of semantics.EvalScalar.
				li.valMode = valErr
				li.err = fmt.Errorf("expression %s evaluates to a %d-vector where a scalar is required", ins.ValE, len(flat))
			}
		}
		if ins.Op == OpFork {
			li.seqs = make([]int32, len(ins.Seqs))
			for i, s := range ins.Seqs {
				li.seqs[i] = int32(s)
			}
		}
		lp.ins[pc] = li
	}
	lp.linkChains(p.Instrs)
	return lp
}

// chainMin is the shortest run of field tests worth a table: below it a
// lookup costs more than walking the branches (BenchmarkChainVisit).
const chainMin = 4

// Key classes of a chain table. A prefix class adds the prefix length to
// classPrefix, so two lengths are two classes.
const (
	classNone   uint8 = iota
	classNum          // KindBool/KindInt by Num: values.Eq coerces them
	classIP           // exact KindIP
	classPrefix       // canonical KindPrefix of length class-classPrefix
)

// chainTable is a collapsed run: the key of each member's constant leads to
// the member's true pc, any other key to the false pc of the last member.
// The keys sit in an open-addressed array at most half full.
type chainTable struct {
	class uint8
	shift uint8  // 64 - log2(len(slots))
	mask  uint32 // prefix classes: the prefix mask
	slots []chainSlot
	miss  int32
}

type chainSlot struct {
	key  int64
	pc   int32 // the member's true pc
	used bool
}

// slot returns k's slot, or the free slot where k would go.
func (t *chainTable) slot(k int64) *chainSlot {
	for i := uint64(k) * 0x9e3779b97f4a7c15 >> t.shift; ; i++ {
		s := &t.slots[i&uint64(len(t.slots)-1)]
		if !s.used || s.key == k {
			return s
		}
	}
}

// chainKey classifies a branch constant, classNone when it may not join a
// run. A prefix that values.Prefix would not build (bits below its mask, a
// length over 32) never matches an address, and an IP carrying a length or
// a string is not the plain address, so neither has a key.
func chainKey(v values.Value) (uint8, int64) {
	switch v.Kind {
	case values.KindBool, values.KindInt:
		return classNum, v.Num
	case values.KindIP:
		if v.Len == 0 && v.Str == "" {
			return classIP, v.Num
		}
	case values.KindPrefix:
		if v == values.Prefix(uint32(v.Num), v.Len) {
			return classPrefix + v.Len, v.Num
		}
	}
	return classNone, 0
}

// lookup returns the pc a packet value leads to, false when the value is
// outside the table's key class (the caller then takes the head's branch).
func (t *chainTable) lookup(fv values.Value) (int32, bool) {
	var k int64
	switch {
	case t.class == classNum && (fv.Kind == values.KindBool || fv.Kind == values.KindInt):
		k = fv.Num
	case t.class == classIP && fv.Kind == values.KindIP && fv.Len == 0 && fv.Str == "":
		k = fv.Num
	case t.class >= classPrefix && fv.Kind == values.KindIP:
		k = int64(uint32(fv.Num) & t.mask)
	default:
		return 0, false
	}
	if s := t.slot(k); s.used {
		return s.pc, true
	}
	return t.miss, true
}

// Chain marks: a field test's key class in the low bits, and two flags.
const (
	markClass = 0x3f
	continues = 0x40 // a field test's false edge extends its run to here
	headed    = 0x80
)

// linkChains makes the head of every run of at least chainMin field tests
// a table instruction. A test that a run continues into is not a head. A
// run cut short by a key it already holds restarts there, and each pc
// heads at most once, so a false-edge cycle ends.
func (lp *Linked) linkChains(in []Instr) {
	mark := make([]uint8, len(in))
	for pc := range in {
		if in[pc].Op == OpBranchFV {
			mark[pc], _ = chainKey(in[pc].Val)
		}
	}
	for pc, m := range mark {
		if c, next := m&markClass, in[pc].False; c != classNone && inRun(in, mark, next, in[pc].Field, c) {
			mark[next] |= continues
		}
	}
	for pc, m := range mark {
		if m&markClass == classNone || m&continues != 0 {
			continue
		}
		for head := pc; head >= 0 && mark[head]&headed == 0; {
			mark[head] |= headed
			head = lp.collapse(in, mark, head)
		}
	}
}

// inRun reports whether pc is a field test on field in key class class.
func inRun(in []Instr, mark []uint8, pc int, field pkt.Field, class uint8) bool {
	return pc >= 0 && pc < len(in) && mark[pc]&markClass == class && in[pc].Field == field
}

// collapse makes the field test at head a table instruction when the run
// it heads has at least chainMin members. It returns the pc where the run
// met a key it already held, -1 when the run ended otherwise.
func (lp *Linked) collapse(in []Instr, mark []uint8, head int) int {
	class, field := mark[head]&markClass, in[head].Field
	// Size the table, counting at most the program against a cycle.
	size := 0
	for pc := head; size < len(in) && inRun(in, mark, pc, field, class); pc = in[pc].False {
		size++
	}
	if size < chainMin {
		return -1
	}
	log := bits.Len(uint(2*size - 1))
	t := &chainTable{class: class, shift: uint8(64 - log), slots: make([]chainSlot, 1<<log)}
	n, pc, last, overlap := 0, head, head, -1
	for ; inRun(in, mark, pc, field, class); n++ {
		_, k := chainKey(in[pc].Val)
		s := t.slot(k)
		if s.used {
			overlap = pc
			break
		}
		*s = chainSlot{key: k, pc: int32(in[pc].True), used: true}
		last, pc = pc, in[pc].False
	}
	if n >= chainMin {
		t.miss = int32(in[last].False)
		if class >= classPrefix {
			t.mask = uint32(values.Prefix(^uint32(0), class-classPrefix).Num)
		}
		lp.ins[head].op, lp.ins[head].tab = opChain, t
	}
	return overlap
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
