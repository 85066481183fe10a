// Package netasm is a NetASM-style instruction set and switch virtual
// machine (§5 of the paper). The SNAP compiler's backend (internal/rules)
// emits one Program per switch: branch instructions for xFDD test nodes,
// load/branch over per-state index/value tables, store instructions for
// state updates, and control instructions that suspend evaluation and hand
// the packet back to the forwarding layer when a remote state variable is
// needed.
//
// The VM models what the paper's NetASM software switch provides: per-state
// tables updated atomically within a packet's processing, plus access to
// the SNAP-header fields (OBS inport/outport, resume node id, sequence and
// pending-write bookkeeping, §4.5).
//
// Programs execute in linked form (link.go): variable names resolved to
// dense table ids, index/value expressions compiled to flat extractors,
// state held in dense tables (state.Table). A steady-state packet visit —
// branches, state reads, in-place writes, pending-write resolution within
// the inline header array — performs no heap allocation; see
// docs/ARCHITECTURE.md ("the compiled plane").
package netasm

import (
	"fmt"
	"sort"
	"strings"

	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// Op is a VM opcode.
type Op uint8

// Opcodes.
const (
	OpNop Op = iota
	// OpBranchFV jumps to True/False depending on a field-value match.
	OpBranchFV
	// OpBranchFF compares two packet fields.
	OpBranchFF
	// OpBranchState loads the local state table at an index and compares.
	OpBranchState
	// OpSetField writes a constant into a packet field.
	OpSetField
	// OpStateWrite applies a set/incr/decr on a local state table.
	OpStateWrite
	// OpResolve evaluates a state action's expressions against the current
	// packet and appends the resolved write to the SNAP-header pending
	// list (the value travels with the packet to the owning switch).
	OpResolve
	// OpSuspend stops evaluation: the packet must travel to the switch
	// owning Var, and resume at ResumeNode there.
	OpSuspend
	// OpFork multicasts the packet: one copy per leaf action sequence,
	// each entering at its sequence label.
	OpFork
	// OpFinish ends evaluation: the packet moves to the delivery phase
	// (commit remaining pending writes, then exit at the OBS outport).
	OpFinish
	// OpDrop discards the packet copy (pending writes still commit).
	OpDrop
)

// Instr is one VM instruction in portable (unlinked) form: state
// references are by name and index/value expressions are syntax trees.
// Linking (Link) resolves them once per configuration install.
type Instr struct {
	Op     Op
	Field  pkt.Field     // BranchFV, SetField
	Field2 pkt.Field     // BranchFF
	Val    values.Value  // BranchFV, SetField
	Var    string        // state ops
	Idx    []syntax.Expr // state ops
	ValE   syntax.Expr   // BranchState, StateWrite(set), Resolve(set)
	Act    xfdd.ActKind  // StateWrite/Resolve: ActSet/ActIncr/ActDecr
	True   int           // branch target pc
	False  int           // branch target pc
	Seqs   []int         // Fork: entry pcs per sequence
	Resume int           // Suspend: xFDD node id to resume at
	Next   int           // fallthrough pc for non-branch ops (-1: halt)
}

// Program is a per-switch configuration in portable form.
type Program struct {
	Instrs []Instr
	// EntryOf maps xFDD node ids to pcs, so a packet tagged with a resume
	// node continues exactly where the previous switch stopped.
	EntryOf map[int]int
}

// String disassembles the program.
func (p *Program) String() string {
	var b strings.Builder
	for pc, ins := range p.Instrs {
		fmt.Fprintf(&b, "%4d: %s\n", pc, ins)
	}
	return b.String()
}

func (i Instr) String() string {
	switch i.Op {
	case OpBranchFV:
		return fmt.Sprintf("bfv   %s = %s ? %d : %d", i.Field, i.Val, i.True, i.False)
	case OpBranchFF:
		return fmt.Sprintf("bff   %s = %s ? %d : %d", i.Field, i.Field2, i.True, i.False)
	case OpBranchState:
		return fmt.Sprintf("bst   %s%s = %s ? %d : %d", i.Var, xfdd.IndexKey(i.Idx), i.ValE, i.True, i.False)
	case OpSetField:
		return fmt.Sprintf("mod   %s <- %s -> %d", i.Field, i.Val, i.Next)
	case OpStateWrite:
		return fmt.Sprintf("stw   %s[%d] %v -> %d", i.Var, i.Act, i.Idx, i.Next)
	case OpResolve:
		return fmt.Sprintf("rsv   %s[%d] %v -> %d", i.Var, i.Act, i.Idx, i.Next)
	case OpSuspend:
		return fmt.Sprintf("susp  %s resume@%d", i.Var, i.Resume)
	case OpFork:
		return fmt.Sprintf("fork  %v", i.Seqs)
	case OpFinish:
		return "fin"
	case OpDrop:
		return "drop"
	}
	return "nop"
}

// PendingWrite is a state update resolved at the evaluation switch and
// carried in the SNAP-header until it reaches the owning switch. The
// variable travels both as its interned name (the control-plane identity)
// and its plane-global id (the engine's dense owner lookup); the index
// travels inline (Idx) except for tuples wider than values.MaxVec, which
// use the IdxWide slice instead.
type PendingWrite struct {
	Var     string
	VarID   int32
	Act     xfdd.ActKind
	Val     values.Value // ActSet only
	Idx     values.Vec
	IdxWide values.Tuple // set instead of Idx when too wide for the fast path
}

// Index returns the write's index tuple (allocating; diagnostics/tests).
func (w PendingWrite) Index() values.Tuple {
	if w.IdxWide != nil {
		return w.IdxWide
	}
	return w.Idx.Tuple()
}

// Phase is the packet's processing phase in the distributed plane.
type Phase uint8

// Packet phases.
const (
	PhaseEval Phase = iota
	PhaseDeliver
	PhaseDone
	PhaseDropped
)

// inlinePending is how many pending writes the SNAP-header carries inline
// before spilling to a heap slice. The example policies resolve at most
// one remote write per packet, so one inline slot keeps the steady-state
// loop allocation-free while keeping header copies small; packets
// resolving several writes spill to the (fork-cloned) overflow slice.
const inlinePending = 1

// Header is the SNAP-header of §4.5: attached at ingress, stripped at
// egress. OBSOut is -1 until the leaf determines the outport.
//
// The pending-write list is copy-on-write: the first inlinePending writes
// live inline in the header (copied by value with the packet), the
// overflow slice is owned exclusively by one live packet copy and cloned
// only when OpFork splits the packet. Use the Pending* accessors.
type Header struct {
	OBSIn  int
	OBSOut int
	Node   int // xFDD resume node id (evaluation phase)
	Seq    int // leaf sequence index, -1 before the leaf fork
	Phase  Phase

	npend uint8
	pend  [inlinePending]PendingWrite
	over  []PendingWrite
}

// PendingLen returns the number of carried pending writes.
func (h *Header) PendingLen() int { return int(h.npend) + len(h.over) }

// PendingAt returns the i-th pending write (in resolution order).
func (h *Header) PendingAt(i int) PendingWrite { return *h.pendingAt(i) }

func (h *Header) pendingAt(i int) *PendingWrite {
	if i < int(h.npend) {
		return &h.pend[i]
	}
	return &h.over[i-int(h.npend)]
}

// AppendPending adds a resolved write, preserving order. Appends go to
// the inline array while it has room; a copy that has already spilled
// keeps appending to its (exclusively owned) overflow slice.
func (h *Header) AppendPending(w PendingWrite) {
	if len(h.over) == 0 && int(h.npend) < inlinePending {
		h.pend[h.npend] = w
		h.npend++
		return
	}
	h.over = append(h.over, w)
}

// truncatePending keeps the first n pending writes after an in-place
// compaction (commitLocal).
func (h *Header) truncatePending(n int) {
	if n <= int(h.npend) {
		h.npend = uint8(n)
		h.over = h.over[:0:0]
		return
	}
	h.over = h.over[:n-int(h.npend)]
}

// setPendingAt overwrites slot i (in-place compaction).
func (h *Header) setPendingAt(i int, w PendingWrite) { *h.pendingAt(i) = w }

// cloneForFork gives a forked copy its own overflow slice. The inline
// array is copied by value with the header; only the spill needs a deep
// copy, and only when present (multicast of packets carrying more than
// inlinePending writes — rare).
func (h *Header) cloneForFork() {
	if len(h.over) > 0 {
		h.over = append([]PendingWrite(nil), h.over...)
	}
}

// SimPacket is a packet in flight with its SNAP-header.
type SimPacket struct {
	Pkt pkt.Packet
	Hdr Header
}

// Outcome describes what a switch decided for one packet copy.
type Outcome uint8

// Switch decisions.
const (
	// NeedState: evaluation suspended; forward toward StateVar's owner.
	NeedState Outcome = iota
	// ToEgress: evaluation finished; forward toward the OBS outport.
	ToEgress
	// Delivered: this switch owns the egress port; packet exits here.
	Delivered
	// Dropped: the packet copy was discarded.
	Dropped
)

// Result is the outcome of running one packet through a switch VM,
// possibly multicast into several copies.
type Result struct {
	Outcome Outcome
	// StateVar and StateVarID name the variable a NeedState packet must
	// reach (meaningful only for that outcome). The id is valid in the
	// plane's VarSpace, -1 when the space does not know the variable.
	StateVar   string
	StateVarID int32
	Packet     SimPacket
}

// Switch is a NetASM VM instance: a linked program plus local state held
// in dense per-variable tables.
//
// Concurrency: Run keeps no state between calls other than the tables —
// the linked program is immutable, packets are value types, and
// pending-write lists are never shared between live packet copies (fork
// clones). Concurrent Runs on the same Switch are therefore safe exactly
// when access to the tables is serialized externally; they are touched
// only for variables in Owns, so holding a lock set covering LockVars()
// for the duration of the call suffices. A switch owning no state
// (LockVars empty) is freely re-entrant.
type Switch struct {
	ID int
	// Owns reports local ownership of state variables.
	Owns map[string]bool
	// Guard against runaway programs.
	MaxSteps int
	// OnStateWrite, when set, observes every mutation of the state tables
	// with the variable, index and post-write value. The data-plane engine
	// installs it to mirror writes to replica switches asynchronously. It
	// runs under the same external serialization as Run itself (the
	// caller's lock set covers the written variable), so implementations
	// see writes to one variable in table order; they must not block. The
	// index tuple it receives is the entry's retained first-insert tuple —
	// observers must treat it as immutable.
	OnStateWrite func(v string, idx values.Tuple, val values.Value)
	// OnStateOp, when set, observes every fast-path state mutation as the
	// *operation* that produced it: dense variable id, act, raw index
	// vector and — for sets — the written value. Unlike OnStateWrite it
	// never allocates (the index travels as the inline Vec, not the
	// retained Tuple), which is what lets the state-replication engine mode
	// build per-packet update logs on the hot path. It fires only for
	// writes with an index of arity ≤ values.MaxVec and a variable known
	// to the linked space; replication-mode planes are classified at link
	// time (Linked.ReplicationBlockers) so neither exclusion occurs there.
	OnStateOp func(varID int32, act xfdd.ActKind, idx values.Vec, val values.Value)

	lp     *Linked
	tables []state.Table
	// Dynamic tables past the linked locals (test seeding of variables
	// the program neither owns nor references); the linked name↔id
	// mapping itself is shared, immutable, on lp.
	extraID    map[string]int
	extraNames []string
}

// NewSwitch builds a VM with empty tables, linking the program against a
// private variable space. Switches that exchange packets within one
// compiled plane must share a space instead: link once with Link and use
// NewLinkedSwitch.
func NewSwitch(id int, prog *Program, owns map[string]bool) *Switch {
	return NewLinkedSwitch(id, Link(prog, soloSpace(prog, owns), owns))
}

// NewLinkedSwitch builds a VM over an already linked program. The
// ownership set is the one the program was linked with.
func NewLinkedSwitch(id int, lp *Linked) *Switch {
	return &Switch{
		ID:       id,
		Owns:     lp.owns,
		MaxSteps: 1 << 16,
		lp:       lp,
		tables:   make([]state.Table, len(lp.locals)),
	}
}

// LockVars lists the state variables a Run may touch, sorted: everything
// the switch owns. Local branch/write instructions only ever reference
// owned variables (remote tests compile to suspend stubs), and commitLocal
// can apply a pending write for any owned variable, so Owns is both sound
// and tight as a static lock set.
func (sw *Switch) LockVars() []string {
	out := make([]string, 0, len(sw.Owns))
	for v := range sw.Owns {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// tableID resolves a variable to its table index: the linked locals
// first, then this switch's dynamic extras.
func (sw *Switch) tableID(v string) (int, bool) {
	if id, ok := sw.lp.localID[v]; ok {
		return id, true
	}
	id, ok := sw.extraID[v]
	return id, ok
}

// tableName is the inverse of tableID.
func (sw *Switch) tableName(id int) string {
	if id < len(sw.lp.locals) {
		return sw.lp.locals[id]
	}
	return sw.extraNames[id-len(sw.lp.locals)]
}

// table returns the dense table of a variable, creating it on demand for
// names outside the linked locals (test seeding of unowned variables).
func (sw *Switch) table(v string) *state.Table {
	if id, ok := sw.tableID(v); ok {
		return &sw.tables[id]
	}
	if sw.extraID == nil {
		sw.extraID = make(map[string]int)
	}
	sw.tables = append(sw.tables, state.Table{})
	id := len(sw.tables) - 1
	sw.extraID[v] = id
	sw.extraNames = append(sw.extraNames, v)
	return &sw.tables[id]
}

// TableRef returns a pointer to v's dense local table, false when the
// switch has no table for it. The pointer stays valid as long as no
// variable unknown to the switch is introduced afterwards (StateSet of a
// new name grows the table slice, which only tests do): the
// state-replication engine mode binds replica apply targets through it, and
// the engine fills tables through AdoptTable, which never grows the slice.
func (sw *Switch) TableRef(v string) (*state.Table, bool) {
	id, ok := sw.tableID(v)
	if !ok {
		return nil, false
	}
	return &sw.tables[id], true
}

// StateGet reads v[idx] from the local tables (Default when absent).
func (sw *Switch) StateGet(v string, idx values.Tuple) values.Value {
	id, ok := sw.tableID(v)
	if !ok {
		return state.Default
	}
	return sw.tables[id].GetTuple(idx)
}

// StateSet seeds v[idx] ← val in the local tables directly, bypassing the
// write observer (tests, diagnostics; the engine uses AdoptTable).
func (sw *Switch) StateSet(v string, idx values.Tuple, val values.Value) {
	sw.table(v).SetTuple(idx, val)
}

// AdoptTable makes t the local table of v as it is: no entry is read, the
// switch takes over t's storage, and a pointer TableRef gave out for v now
// sees t. It is how a reconfiguration hands a variable's state to its owner
// in the next plane; the caller guarantees that nothing else writes t from
// here on. False when the switch has no table for v (the link step gives
// every owned variable one), so the slice never grows under a state.Replica.
func (sw *Switch) AdoptTable(v string, t state.Table) bool {
	id, ok := sw.tableID(v)
	if !ok {
		return false
	}
	sw.tables[id] = t
	return true
}

// EntryCount returns the number of entries in v's local table.
func (sw *Switch) EntryCount(v string) int {
	id, ok := sw.tableID(v)
	if !ok {
		return 0
	}
	return sw.tables[id].Len()
}

// StateInto dumps every non-empty local table into st (the dense →
// canonical Store conversion; st accumulates across switches).
func (sw *Switch) StateInto(st *state.Store) {
	for i := range sw.tables {
		if sw.tables[i].Len() > 0 {
			sw.tables[i].AddToStore(st, sw.tableName(i))
		}
	}
}

// Snapshot returns the switch's state as a canonical Store copy.
func (sw *Switch) Snapshot() *state.Store {
	st := state.NewStore()
	sw.StateInto(st)
	return st
}

// Run processes one packet copy: commit its pending writes for local
// variables, then continue per phase. It returns one Result per emitted
// copy (multicast leaves fork). See RunAppend for the allocation-free
// variant the engine hot path uses.
func (sw *Switch) Run(sp SimPacket) ([]Result, error) {
	return sw.RunAppend(nil, sp)
}

// RunAppend is Run appending results to dst (reuse a scratch slice across
// calls to keep steady-state visits allocation-free).
func (sw *Switch) RunAppend(dst []Result, sp SimPacket) ([]Result, error) {
	sw.commitLocal(&sp)
	switch sp.Hdr.Phase {
	case PhaseDeliver:
		return append(dst, sw.deliverOutcome(sp)), nil
	case PhaseEval:
		pc := sw.lp.entryPC(sp.Hdr.Node)
		if pc < 0 {
			// Rule generation gives every switch an entry for every node
			// (remote state tests compile to suspend stubs), so a missing
			// entry is a compiler bug.
			return dst, fmt.Errorf("netasm: switch %d has no entry for node %d", sw.ID, sp.Hdr.Node)
		}
		return sw.exec(dst, sp, pc)
	default:
		return append(dst, Result{Outcome: Dropped, StateVarID: -1, Packet: sp}), nil
	}
}

// commitLocal applies the pending writes owned by this switch, preserving
// their order, compacting the survivors in place.
func (sw *Switch) commitLocal(sp *SimPacket) {
	h := &sp.Hdr
	n := h.PendingLen()
	if n == 0 {
		return
	}
	kept := 0
	for i := 0; i < n; i++ {
		w := *h.pendingAt(i)
		if !sw.Owns[w.Var] {
			if kept != i {
				h.setPendingAt(kept, w)
			}
			kept++
			continue
		}
		tbl := sw.table(w.Var)
		var idx values.Tuple
		var val values.Value
		switch {
		case w.IdxWide != nil:
			switch w.Act {
			case xfdd.ActSet:
				idx, val = tbl.SetWide(w.IdxWide, w.Val), w.Val
			case xfdd.ActIncr:
				idx, val = tbl.AddWide(w.IdxWide, 1)
			case xfdd.ActDecr:
				idx, val = tbl.AddWide(w.IdxWide, -1)
			}
		default:
			k := state.KeyOf(w.Idx)
			switch w.Act {
			case xfdd.ActSet:
				idx, val = tbl.Set(k, w.Idx, w.Val), w.Val
			case xfdd.ActIncr:
				idx, val = tbl.Add(k, w.Idx, 1)
			case xfdd.ActDecr:
				idx, val = tbl.Add(k, w.Idx, -1)
			}
			if sw.OnStateOp != nil && w.VarID >= 0 {
				sw.OnStateOp(w.VarID, w.Act, w.Idx, val)
			}
		}
		if sw.OnStateWrite != nil {
			sw.OnStateWrite(w.Var, idx, val)
		}
	}
	h.truncatePending(kept)
}

// deliverOutcome routes a delivery-phase packet: first to any remaining
// pending-write owners, then to the egress.
func (sw *Switch) deliverOutcome(sp SimPacket) Result {
	if sp.Hdr.PendingLen() > 0 {
		w := sp.Hdr.pendingAt(0)
		return Result{Outcome: NeedState, StateVar: w.Var, StateVarID: w.VarID, Packet: sp}
	}
	if sp.Hdr.OBSOut < 0 {
		return Result{Outcome: Dropped, StateVarID: -1, Packet: sp}
	}
	return Result{Outcome: ToEgress, StateVarID: -1, Packet: sp}
}

// scalar evaluates a linked instruction's value expression. It is only
// called for instructions that require one (state tests, ActSet writes);
// an instruction that reached execution without a value expression is
// malformed and errors, exactly like the interpreter's EvalScalar did.
func (sw *Switch) scalar(li *linstr, p *pkt.Packet) (values.Value, error) {
	switch li.valMode {
	case valConst:
		return li.valC, nil
	case valField:
		return p.Field(li.valF), nil
	case valSlow:
		return semantics.EvalScalar(li.slowVal, *p)
	default:
		return values.None, fmt.Errorf("netasm: switch %d: instruction requires a value expression but has none", sw.ID)
	}
}

// exec interprets the linked program from pc, appending emitted copies to
// dst.
func (sw *Switch) exec(dst []Result, sp SimPacket, pc int) ([]Result, error) {
	ins := sw.lp.ins
	steps := 0
	for pc >= 0 {
		if steps++; steps > sw.MaxSteps {
			return dst, fmt.Errorf("netasm: switch %d: step limit exceeded", sw.ID)
		}
		if pc >= len(ins) {
			return dst, fmt.Errorf("netasm: switch %d: pc %d out of range", sw.ID, pc)
		}
		li := &ins[pc]
		switch li.op {
		case OpNop:
			pc = int(li.next)

		case OpBranchFV:
			if li.val.Matches(sp.Pkt.Field(li.field)) {
				pc = int(li.tpc)
			} else {
				pc = int(li.fpc)
			}

		case OpBranchFF:
			if values.Eq(sp.Pkt.Field(li.field), sp.Pkt.Field(li.field2)) {
				pc = int(li.tpc)
			} else {
				pc = int(li.fpc)
			}

		case OpBranchState:
			want, err := sw.scalar(li, &sp.Pkt)
			if err != nil {
				return dst, err
			}
			var got values.Value
			if li.slowIdx == nil {
				raw := li.idx.vec(&sp.Pkt)
				got = sw.tables[li.tbl].Get(state.KeyOf(raw))
			} else {
				got = sw.tables[li.tbl].GetWide(evalIdx(li.slowIdx, sp.Pkt))
			}
			if values.Eq(got, want) {
				pc = int(li.tpc)
			} else {
				pc = int(li.fpc)
			}

		case OpSetField:
			sp.Pkt = sp.Pkt.With(li.field, li.val)
			pc = int(li.next)

		case OpStateWrite:
			tbl := &sw.tables[li.tbl]
			var idx values.Tuple
			var val values.Value
			if li.slowIdx == nil {
				raw := li.idx.vec(&sp.Pkt)
				k := state.KeyOf(raw)
				switch li.act {
				case xfdd.ActSet:
					v, err := sw.scalar(li, &sp.Pkt)
					if err != nil {
						return dst, err
					}
					idx, val = tbl.Set(k, raw, v), v
				case xfdd.ActIncr:
					idx, val = tbl.Add(k, raw, 1)
				case xfdd.ActDecr:
					idx, val = tbl.Add(k, raw, -1)
				}
				if sw.OnStateOp != nil && li.varID >= 0 {
					sw.OnStateOp(li.varID, li.act, raw, val)
				}
			} else {
				wide := evalIdx(li.slowIdx, sp.Pkt)
				switch li.act {
				case xfdd.ActSet:
					v, err := sw.scalar(li, &sp.Pkt)
					if err != nil {
						return dst, err
					}
					idx, val = tbl.SetWide(wide, v), v
				case xfdd.ActIncr:
					idx, val = tbl.AddWide(wide, 1)
				case xfdd.ActDecr:
					idx, val = tbl.AddWide(wide, -1)
				}
			}
			if sw.OnStateWrite != nil {
				sw.OnStateWrite(li.vname, idx, val)
			}
			pc = int(li.next)

		case OpResolve:
			w := PendingWrite{Var: li.vname, VarID: li.varID, Act: li.act}
			if li.slowIdx == nil {
				w.Idx = li.idx.vec(&sp.Pkt)
			} else {
				w.IdxWide = evalIdx(li.slowIdx, sp.Pkt)
			}
			if li.act == xfdd.ActSet {
				v, err := sw.scalar(li, &sp.Pkt)
				if err != nil {
					return dst, err
				}
				w.Val = v
			}
			sp.Hdr.AppendPending(w)
			pc = int(li.next)

		case OpSuspend:
			sp.Hdr.Node = int(li.resume)
			return append(dst, Result{Outcome: NeedState, StateVar: li.vname, StateVarID: li.varID, Packet: sp}), nil

		case OpFork:
			if len(li.seqs) == 1 {
				// Single-sequence leaf: no multicast, the copy continues
				// in place (the overwhelmingly common case).
				sp.Hdr.Seq = 0
				pc = int(li.seqs[0])
				continue
			}
			for si, entry := range li.seqs {
				cp := sp
				cp.Hdr.Seq = si
				cp.Hdr.cloneForFork()
				var err error
				dst, err = sw.exec(dst, cp, int(entry))
				if err != nil {
					return dst, err
				}
			}
			return dst, nil

		case OpFinish:
			sp.Hdr.Phase = PhaseDeliver
			if v := sp.Pkt.Field(pkt.Outport); v.Kind == values.KindInt {
				sp.Hdr.OBSOut = int(v.Num)
			} else {
				sp.Hdr.OBSOut = -1
			}
			return append(dst, sw.deliverOutcome(sp)), nil

		case OpDrop:
			sp.Hdr.Phase = PhaseDeliver
			sp.Hdr.OBSOut = -1
			// Pending writes still need to commit remotely.
			return append(dst, sw.deliverOutcome(sp)), nil

		default:
			return dst, fmt.Errorf("netasm: switch %d: bad opcode %d", sw.ID, li.op)
		}
	}
	return dst, fmt.Errorf("netasm: switch %d: fell off program", sw.ID)
}

// evalIdx is the interpreter's index evaluation, kept for tuples wider
// than the inline fast path.
func evalIdx(idx []syntax.Expr, p pkt.Packet) values.Tuple {
	out := make(values.Tuple, 0, len(idx))
	for _, e := range idx {
		out = append(out, semantics.EvalExpr(e, p)...)
	}
	return out
}
