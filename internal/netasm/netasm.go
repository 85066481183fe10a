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
// state held in dense tables (state.Table), and each long run of field
// tests on one field collapsed into one table lookup, as NetASM matches a
// field against a table (§4.5). A steady-state packet visit —
// branches, state reads, in-place writes, pending-write resolution within
// the inline header array — performs no heap allocation; see
// docs/ARCHITECTURE.md ("the compiled plane").
package netasm

import (
	"fmt"
	"strings"

	"snap/internal/pkt"
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
	// opChain exists only in linked programs: the head of a collapsed run
	// of field tests, one table lookup (link.go).
	opChain
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
		return fmt.Sprintf("bst   %s ? %d : %d", xfdd.STest{Var: i.Var, Idx: i.Idx, Val: i.ValE}, i.True, i.False)
	case OpSetField:
		return fmt.Sprintf("mod   %s <- %s -> %d", i.Field, i.Val, i.Next)
	case OpStateWrite:
		return fmt.Sprintf("stw   %s -> %d", i.action(), i.Next)
	case OpResolve:
		return fmt.Sprintf("rsv   %s -> %d", i.action(), i.Next)
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

// action is a state instruction's action; it prints as the policy writes
// it: s[e]++, s[e]-- or s[e] <- v.
func (i Instr) action() xfdd.Action {
	return xfdd.Action{Kind: i.Act, Var: i.Var, Idx: i.Idx, SVal: i.ValE}
}

// PendingWrite is one state write as the VM represents it: resolved at the
// evaluation switch and carried in the SNAP-header until it reaches the
// owning switch (§4.5), or applied where it was resolved. The variable
// travels as its id in the plane's VarSpace and the index as a values.Vec,
// inline up to values.MaxVec values. Switch.OnStateWrite receives the same
// record with Val set to the post-write value.
type PendingWrite struct {
	VarID int32
	Act   xfdd.ActKind
	Val   values.Value // ActSet: the value written
	Idx   values.Vec
}

// Index returns the write's index tuple (allocating; diagnostics/tests).
func (w PendingWrite) Index() values.Tuple { return w.Idx.Tuple() }

// Phase is the packet's processing phase in the distributed plane.
type Phase uint8

// Packet phases.
const (
	PhaseEval Phase = iota
	PhaseDeliver
)

// inlinePending is how many pending writes the SNAP-header carries inline
// before spilling to the overflow slice. One slot keeps the header small; a
// packet resolving two remote writes (campus: established[…] and
// count[inport]++) spills, into storage its walk slot keeps (Enter).
const inlinePending = 1

// Header is the SNAP-header of §4.5: attached at ingress, stripped at
// egress. OBSOut is -1 until the leaf determines the outport.
//
// The pending-write list is copy-on-write: the first inlinePending writes
// live inline in the header (copied by value with the packet), the
// overflow slice is owned exclusively by one live packet copy and cloned
// when OpFork splits the packet. Use the Pending* accessors.
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

// Enter resets h to the initial SNAP-header of §4.5 for a packet entering
// at OBS port in, evaluation at xFDD node root. It writes the fields that
// say what the header holds and leaves the stale pending-write slots,
// which npend makes unreachable. The overflow slice keeps its storage: the
// caller guarantees no live copy shares it.
func (h *Header) Enter(in, root int) {
	h.OBSIn, h.OBSOut, h.Node, h.Seq, h.Phase = in, -1, root, -1, PhaseEval
	h.npend, h.over = 0, h.over[:0]
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
func (h *Header) AppendPending(w *PendingWrite) {
	if len(h.over) == 0 && int(h.npend) < inlinePending {
		h.pend[h.npend] = *w
		h.npend++
		return
	}
	h.over = append(h.over, *w)
}

// truncatePending keeps the first n pending writes after an in-place
// compaction (commitLocal). The overflow slice keeps its storage.
func (h *Header) truncatePending(n int) {
	m := min(n, int(h.npend))
	h.npend, h.over = uint8(m), h.over[:n-m]
}

// fork makes h the header of fork copy seq, with its own overflow slice
// (nil when empty, so no copy shares spare capacity). Only a spill
// allocates: multicast of packets carrying more than inlinePending writes.
func (h *Header) fork(seq int) {
	h.Seq, h.over = seq, append([]PendingWrite(nil), h.over...)
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
	// NeedState: evaluation suspended; forward toward StateVarID's owner.
	NeedState Outcome = iota
	// ToEgress: evaluation finished; forward toward the OBS outport.
	ToEgress
	// Delivered: this switch owns the egress port; packet exits here.
	Delivered
	// Dropped: the packet copy was discarded.
	Dropped
)

// Result is the outcome of one packet copy a visit emitted; a multicast
// leaf emits several.
type Result struct {
	Outcome Outcome
	// StateVarID is the VarSpace id of the variable a NeedState packet
	// must reach (meaningful only for that outcome).
	StateVarID int32
	// Copy names the packet the result describes: 0 the one passed to
	// Visit, k > 0 the k-th fork copy. See Slot.
	Copy int32
}

// Slot returns the packet r describes, given what the visit was handed.
func (r *Result) Slot(sp *SimPacket, forks []SimPacket) *SimPacket {
	if r.Copy == 0 {
		return sp
	}
	return &forks[r.Copy-1]
}

// Switch is a NetASM VM instance: a linked program plus local state held
// in dense per-variable tables, one per variable the link step gave the
// switch (LockVars, plus any unowned variable its local instructions touch).
// The tables never grow or move, so a pointer TableRef hands out stays
// valid for the switch's life.
//
// Concurrency: Visit keeps no state between calls other than the tables —
// the linked program is immutable, the packet and fork buffer are the
// caller's, and live packet copies never share a pending-write list (fork
// clones). Concurrent visits to one Switch are therefore safe exactly
// when access to the tables is serialized externally; they are touched
// only for owned variables, so holding a lock set covering LockVars()
// for the duration of the call suffices. A switch owning no state
// (LockVars empty) is freely re-entrant.
type Switch struct {
	ID int
	// Guard against runaway programs.
	MaxSteps int
	// OnStateWrite, when set, observes every mutation of the state tables,
	// exactly once: a local write (OpStateWrite) and a carried write
	// committed here alike, whatever the index's arity. It receives the
	// write as the VM holds it, with Val set to the post-write value. The
	// data-plane engine installs it to mirror writes to replica switches.
	// It runs under the same external serialization as Visit itself (the
	// caller's lock set covers the written variable), so implementations
	// see writes to one variable in table order; they must not block.
	// Nothing mutates a write's index spill afterwards, so observers may
	// keep the write.
	OnStateWrite func(w PendingWrite)

	lp     *Linked
	tables []state.Table
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
		MaxSteps: 1 << 16,
		lp:       lp,
		tables:   make([]state.Table, len(lp.locals)),
	}
}

// LockVars lists the state variables a visit may touch, sorted: everything
// the switch owns. Local branch/write instructions only ever reference
// owned variables (remote tests compile to suspend stubs), and commitLocal
// can apply a pending write for any owned variable, so the owned set is
// both sound and tight as a static lock set.
func (sw *Switch) LockVars() []string {
	var out []string
	for _, v := range sw.lp.locals {
		if sw.lp.owns(int32(sw.lp.vs.ID(v))) {
			out = append(out, v)
		}
	}
	return out
}

// table returns v's dense local table, nil when the switch has none.
func (sw *Switch) table(v string) *state.Table {
	if id := sw.lp.vs.ID(v); id >= 0 {
		if slot := sw.lp.slot[id]; slot >= 0 {
			return &sw.tables[slot]
		}
	}
	return nil
}

// TableRef returns a pointer to v's dense local table, false when the
// switch has no table for it. The pointer stays valid for the switch's
// life, and AdoptTable swaps contents behind it; the engine reads a plane's
// tables through it for snapshots and a swap's staged state.
func (sw *Switch) TableRef(v string) (*state.Table, bool) {
	t := sw.table(v)
	return t, t != nil
}

// StateSet seeds v[idx] ← val in the local tables directly, bypassing the
// write observer (tests, diagnostics; the engine uses AdoptTable). False,
// and nothing written, when the switch has no table for v.
func (sw *Switch) StateSet(v string, idx values.Tuple, val values.Value) bool {
	t := sw.table(v)
	if t != nil {
		t.SetTuple(idx, val)
	}
	return t != nil
}

// AdoptTable makes t the local table of v as it is: no entry is read, the
// switch takes over t's storage, and a pointer TableRef gave out for v now
// sees t. It is how a reconfiguration hands a variable's state to its owner
// in the next plane; the caller guarantees that nothing else writes t from
// here on. False when the switch has no table for v (the link step gives
// every owned variable one).
func (sw *Switch) AdoptTable(v string, t state.Table) bool {
	dst := sw.table(v)
	if dst != nil {
		*dst = t
	}
	return dst != nil
}

// Snapshot returns a copy of the switch's non-empty tables as a store.
func (sw *Switch) Snapshot() *state.Store {
	st := state.NewStore()
	for i := range sw.tables {
		st.SetTable(sw.lp.locals[i], sw.tables[i].Clone())
	}
	return st
}

// Visit runs packet copy *sp in place: commit its pending writes for local
// variables, then continue per phase, appending a Result per emitted copy
// to dst. Only a multi-sequence OpFork copies, appending to *forks (reuse
// it, as dst, across visits); a result naming *sp is the visit's only one.
func (sw *Switch) Visit(dst []Result, sp *SimPacket, forks *[]SimPacket) ([]Result, error) {
	sw.commitLocal(sp)
	switch sp.Hdr.Phase {
	case PhaseDeliver:
		return append(dst, deliverOutcome(&sp.Hdr, 0)), nil
	case PhaseEval:
		pc := sw.lp.entryPC(sp.Hdr.Node)
		if pc < 0 {
			// Rule generation gives every switch an entry for every node
			// (remote state tests compile to suspend stubs), so a missing
			// entry is a compiler bug.
			return dst, fmt.Errorf("netasm: switch %d has no entry for node %d", sw.ID, sp.Hdr.Node)
		}
		return sw.exec(dst, sp, 0, forks, pc)
	default:
		return append(dst, Result{Outcome: Dropped}), nil
	}
}

// RunAppend is Visit on a copy of sp; the packets its results describe are
// dropped with it.
func (sw *Switch) RunAppend(dst []Result, sp SimPacket) ([]Result, error) {
	var forks []SimPacket
	return sw.Visit(dst, &sp, &forks)
}

// commitLocal applies the pending writes owned by this switch where they
// lie in the header, preserving their order, compacting the survivors in
// place.
func (sw *Switch) commitLocal(sp *SimPacket) {
	h := &sp.Hdr
	n := h.PendingLen()
	if n == 0 {
		return
	}
	kept := 0
	for i := 0; i < n; i++ {
		w := h.pendingAt(i)
		if sw.lp.owns(w.VarID) {
			sw.write(&sw.tables[sw.lp.slot[w.VarID]], w)
			continue
		}
		if kept != i {
			*h.pendingAt(kept) = *w
		}
		kept++
	}
	h.truncatePending(kept)
}

// write applies w to tbl and reports it to OnStateWrite with Val set to the
// post-write value.
func (sw *Switch) write(tbl *state.Table, w *PendingWrite) {
	switch w.Act {
	case xfdd.ActSet:
		tbl.Set(&w.Idx, w.Val)
	case xfdd.ActIncr:
		w.Val = tbl.Add(&w.Idx, 1)
	case xfdd.ActDecr:
		w.Val = tbl.Add(&w.Idx, -1)
	default:
		return
	}
	if sw.OnStateWrite != nil {
		sw.OnStateWrite(*w)
	}
}

// deliverOutcome routes delivery-phase copy cp with header h: first to any
// remaining pending-write owners, then to the egress.
func deliverOutcome(h *Header, cp int32) Result {
	r := Result{Outcome: ToEgress, Copy: cp}
	if h.PendingLen() > 0 {
		r.Outcome, r.StateVarID = NeedState, h.pendingAt(0).VarID
	} else if h.OBSOut < 0 {
		r.Outcome = Dropped
	}
	return r
}

// scalar evaluates a linked instruction's value expression. It is only
// called for instructions that require one (state tests, ActSet writes);
// an instruction that reached execution without a value expression is
// malformed and errors.
func (sw *Switch) scalar(li *linstr, p *pkt.Packet) (values.Value, error) {
	switch li.valMode {
	case valConst:
		return li.val, nil
	case valField:
		return p.Field(li.valF), nil
	case valErr:
		return values.None, li.err
	default:
		return values.None, fmt.Errorf("netasm: switch %d: instruction requires a value expression but has none", sw.ID)
	}
}

// exec interprets the linked program from pc on copy cp, *sp, appending
// emitted copies to dst.
func (sw *Switch) exec(dst []Result, sp *SimPacket, cp int32, forks *[]SimPacket, pc int) ([]Result, error) {
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

		case opChain:
			fv := sp.Pkt.Field(li.field)
			if next, ok := li.tab.lookup(fv); ok {
				pc = int(next)
			} else if li.val.Matches(fv) {
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
			var idx values.Vec
			li.idx.fill(&idx, &sp.Pkt)
			if values.Eq(sw.tables[li.tbl].Get(&idx), want) {
				pc = int(li.tpc)
			} else {
				pc = int(li.fpc)
			}

		case OpSetField:
			sp.Pkt.Set(li.field, li.val)
			pc = int(li.next)

		case OpStateWrite, OpResolve:
			w := PendingWrite{VarID: li.varID, Act: li.act}
			li.idx.fill(&w.Idx, &sp.Pkt)
			if li.act == xfdd.ActSet {
				v, err := sw.scalar(li, &sp.Pkt)
				if err != nil {
					return dst, err
				}
				w.Val = v
			}
			if li.op == OpStateWrite {
				sw.write(&sw.tables[li.tbl], &w)
			} else {
				sp.Hdr.AppendPending(&w)
			}
			pc = int(li.next)

		case OpSuspend:
			sp.Hdr.Node = int(li.resume)
			return append(dst, Result{Outcome: NeedState, StateVarID: li.varID, Copy: cp}), nil

		case OpFork:
			if len(li.seqs) == 1 {
				// Single-sequence leaf: no multicast, the copy continues
				// in place (the overwhelmingly common case).
				sp.Hdr.Seq = 0
				pc = int(li.seqs[0])
				continue
			}
			// Each sequence runs on its own copy of the pre-fork packet,
			// found by index: a nested fork may move the buffer.
			for si, entry := range li.seqs {
				*forks = append(*forks, *sp)
				k := len(*forks)
				(*forks)[k-1].Hdr.fork(si)
				var err error
				if dst, err = sw.exec(dst, &(*forks)[k-1], int32(k), forks, int(entry)); err != nil {
					return dst, err
				}
			}
			return dst, nil

		case OpFinish, OpDrop:
			// A dropped copy still carries its pending writes to their owners.
			sp.Hdr.Phase, sp.Hdr.OBSOut = PhaseDeliver, -1
			if v := sp.Pkt.Field(pkt.Outport); li.op == OpFinish && v.Kind == values.KindInt {
				sp.Hdr.OBSOut = int(v.Num)
			}
			return append(dst, deliverOutcome(&sp.Hdr, cp)), nil

		default:
			return dst, fmt.Errorf("netasm: switch %d: bad opcode %d", sw.ID, li.op)
		}
	}
	return dst, fmt.Errorf("netasm: switch %d: fell off program", sw.ID)
}
