package netasm_test

import (
	"reflect"
	"testing"
	"unsafe"

	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/semantics"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

func TestVarSpace(t *testing.T) {
	vs := netasm.NewVarSpace([]string{"b", "a", "b", "c"})
	if vs.Len() != 3 {
		t.Fatalf("len: %d", vs.Len())
	}
	// Sorted, deduplicated, round-trips.
	for i, want := range []string{"a", "b", "c"} {
		if vs.Name(i) != want || vs.ID(want) != i {
			t.Fatalf("slot %d: name=%q id(%q)=%d", i, vs.Name(i), want, vs.ID(want))
		}
	}
	if vs.ID("missing") != -1 || vs.Name(99) != "" {
		t.Fatal("unknown lookups must miss")
	}
}

// wideIdx is a 5-component index expression: wider than values.MaxVec, so
// its values spill past the vector's inline array and its table key is the
// number of the tuple's key string.
func wideIdx() []syntax.Expr {
	return []syntax.Expr{
		syntax.F(pkt.SrcIP), syntax.F(pkt.DstIP), syntax.F(pkt.SrcPort),
		syntax.F(pkt.DstPort), syntax.F(pkt.Proto),
	}
}

func widePacket() netasm.SimPacket {
	return netasm.SimPacket{
		Pkt: pkt.New(map[pkt.Field]values.Value{
			pkt.SrcIP:   values.IPv4(10, 0, 1, 1),
			pkt.DstIP:   values.IPv4(10, 0, 2, 2),
			pkt.SrcPort: values.Int(1234),
			pkt.DstPort: values.Int(80),
			pkt.Proto:   values.Int(6),
		}),
		Hdr: netasm.Header{OBSIn: 1, OBSOut: -1, Node: 0, Seq: -1, Phase: netasm.PhaseEval},
	}
}

// TestWideIndexLocalWrite: a 5-tuple-indexed local state write and branch
// behave exactly like the narrow path.
func TestWideIndexLocalWrite(t *testing.T) {
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpBranchState, Var: "flows", Idx: wideIdx(),
				ValE: syntax.V(values.Bool(true)), True: 1, False: 3},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(2), Next: 2},
			{Op: netasm.OpFinish},
			{Op: netasm.OpStateWrite, Var: "flows", Idx: wideIdx(),
				ValE: syntax.V(values.Bool(true)), Act: xfdd.ActSet, Next: 4},
			{Op: netasm.OpFinish},
		},
	}
	sw := netasm.NewSwitch(0, p, map[string]bool{"flows": true})

	// First packet: branch false (absent), write the entry, no outport.
	rs, sps, err := sw.Run(widePacket())
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.Dropped {
		t.Fatalf("first visit: %+v", rs[0])
	}
	// Second packet: the wide entry is now present → branch true → egress.
	rs, sps, err = sw.Run(widePacket())
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.ToEgress || sps[0].Hdr.OBSOut != 2 {
		t.Fatalf("second visit: %+v", rs[0])
	}
	// The snapshot view carries the full 5-component tuple.
	snap := sw.Snapshot()
	es := snap.Entries("flows")
	if len(es) != 1 || len(es[0].Idx) != 5 {
		t.Fatalf("snapshot entries: %+v", es)
	}
}

// TestWideIndexPendingWrite: a wide-indexed remote write travels as a
// pending write carrying the whole tuple and commits at the owner.
func TestWideIndexPendingWrite(t *testing.T) {
	progA := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpResolve, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 2},
			{Op: netasm.OpFinish},
		},
	}
	a := netasm.NewSwitch(0, progA, nil)
	b := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"flows": true})

	rs, sps, err := a.Run(widePacket())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Outcome != netasm.NeedState || sps[0].Hdr.PendingLen() != 1 {
		t.Fatalf("suspension: %+v", r)
	}
	if w := sps[0].Hdr.PendingAt(0); w.Idx.Len() != 5 || len(w.Index()) != 5 {
		t.Fatalf("pending write should carry the wide tuple: %+v", w)
	}
	rs, sps, err = b.Run(sps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.ToEgress {
		t.Fatalf("after commit: %+v", rs[0])
	}
	sp := widePacket()
	idx := make(values.Tuple, 0, 5)
	for _, f := range []pkt.Field{pkt.SrcIP, pkt.DstIP, pkt.SrcPort, pkt.DstPort, pkt.Proto} {
		idx = append(idx, sp.Pkt.Field(f))
	}
	if got := b.Snapshot().Get("flows", idx); !values.Eq(got, values.Int(1)) {
		t.Fatalf("committed wide entry: %v", got)
	}
}

// wideTuple is widePacket's 5-tuple with the protocol proto: the one value
// past values.MaxVec, so it lies in the index's spill.
func wideTuple(proto int64) values.Tuple {
	return values.Tuple{values.IPv4(10, 0, 1, 1), values.IPv4(10, 0, 2, 2),
		values.Int(1234), values.Int(80), values.Int(proto)}
}

// TestWideWritesOwnTheirSpill: the VM refills an index spill in place, so
// every record that outlives the fill must own its spill. Two fork copies
// carry one wide write; the first commits it at the owner and resolves a
// new wide write into the slot it freed, and the second copy's write still
// holds its own index and commits it. A header whose committed write lay
// before a carried one keeps the carried index through the compaction and
// the next resolve; entered again, its slots hold stale spills, which the
// copies of a fork that each resolve a wide write must not share. A write
// hook that keeps what it receives keeps the index it was given across
// later visits.
func TestWideWritesOwnTheirSpill(t *testing.T) {
	eval := netasm.NewSwitch(0, &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpResolve, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpFork, Seqs: []int{2, 4}},
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(17), Next: 3},
			{Op: netasm.OpSuspend, Var: "flows", Resume: 1},
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(47), Next: 5},
			{Op: netasm.OpSuspend, Var: "flows", Resume: 1},
		},
	}, nil)
	owner := netasm.NewSwitch(1, &netasm.Program{
		EntryOf: map[int]int{1: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(99), Next: 1},
			{Op: netasm.OpResolve, Var: "other", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 2},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 3},
			{Op: netasm.OpFinish},
		},
	}, map[string]bool{"flows": true})
	var kept []netasm.PendingWrite
	owner.OnStateWrite = func(w netasm.PendingWrite) { kept = append(kept, w) }

	sp := widePacket()
	var forks []netasm.SimPacket
	rs, err := eval.Visit(nil, &sp, &forks)
	if err != nil || len(rs) != 2 || len(forks) != 2 {
		t.Fatalf("fork: %v, %d results, %d copies", err, len(rs), len(forks))
	}
	for i := range forks {
		cp := &forks[i]
		if w := cp.Hdr.PendingAt(0); !reflect.DeepEqual(w.Index(), wideTuple(6)) {
			t.Fatalf("copy %d carries %v before the owner's visit, want %v", i, w.Index(), wideTuple(6))
		}
		var none []netasm.SimPacket
		if rs, err = owner.Visit(rs[:0], cp, &none); err != nil || len(rs) != 1 || rs[0].Outcome != netasm.NeedState {
			t.Fatalf("copy %d at the owner: %v, %+v", i, err, rs)
		}
		if w := cp.Hdr.PendingAt(0); cp.Hdr.PendingLen() != 1 || !reflect.DeepEqual(w.Index(), wideTuple(99)) {
			t.Fatalf("copy %d carries %v after the owner's visit, want the new write at %v", i, w.Index(), wideTuple(99))
		}
	}

	compact := netasm.NewSwitch(0, &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpResolve, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(17), Next: 2},
			{Op: netasm.OpResolve, Var: "other", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 3},
			{Op: netasm.OpSuspend, Var: "flows", Resume: 1},
		},
	}, nil)
	sp = widePacket()
	if rs, err = compact.Visit(rs[:0], &sp, &forks); err != nil || sp.Hdr.PendingLen() != 2 {
		t.Fatalf("two writes: %v, %d pending", err, sp.Hdr.PendingLen())
	}
	if rs, err = owner.Visit(rs[:0], &sp, &forks); err != nil || sp.Hdr.PendingLen() != 2 {
		t.Fatalf("compaction: %v, %d pending", err, sp.Hdr.PendingLen())
	}
	for i, proto := range []int64{17, 99} {
		if w := sp.Hdr.PendingAt(i); !reflect.DeepEqual(w.Index(), wideTuple(proto)) {
			t.Errorf("after the compaction, pending write %d holds %v, want %v", i, w.Index(), wideTuple(proto))
		}
	}

	split := netasm.NewSwitch(0, &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpFork, Seqs: []int{1, 4}},
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(17), Next: 2},
			{Op: netasm.OpResolve, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 3},
			{Op: netasm.OpSuspend, Var: "flows", Resume: 1},
			{Op: netasm.OpSetField, Field: pkt.Proto, Val: values.Int(47), Next: 5},
			{Op: netasm.OpResolve, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 6},
			{Op: netasm.OpSuspend, Var: "flows", Resume: 1},
		},
	}, nil)
	sp.Hdr.Enter(1, 0)
	forks = forks[:0]
	if rs, err = split.Visit(rs[:0], &sp, &forks); err != nil || len(forks) != 2 {
		t.Fatalf("split: %v, %d copies", err, len(forks))
	}
	for i, proto := range []int64{17, 47} {
		if h := &forks[i].Hdr; h.PendingLen() != 1 || !reflect.DeepEqual(h.PendingAt(0).Index(), wideTuple(proto)) {
			t.Errorf("split copy %d holds %v, want %v", i, h.PendingAt(0).Index(), wideTuple(proto))
		}
	}

	if got := owner.Snapshot().Get("flows", wideTuple(6)); !values.Eq(got, values.Int(3)) {
		t.Fatalf("flows%v = %v, want 3: one increment per copy and one from the compacted header", wideTuple(6), got)
	}
	if len(kept) != 3 {
		t.Fatalf("the hook saw %d writes, want 3", len(kept))
	}
	for i, w := range kept {
		if !reflect.DeepEqual(w.Index(), wideTuple(6)) {
			t.Errorf("hooked write %d holds %v after later visits, want %v", i, w.Index(), wideTuple(6))
		}
	}
}

// TestPendingOverflowFork: more pending writes than the inline header
// slots, through a multicast fork — each copy must carry its own
// (cloned) overflow and both owners see every write exactly once per
// copy's path.
func TestPendingOverflowFork(t *testing.T) {
	idx := func(v int64) []syntax.Expr { return []syntax.Expr{syntax.V(values.Int(v))} }
	progA := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			// Three resolves (spilling past the inline slot), then a
			// 2-way fork whose branches add one more distinct write each.
			{Op: netasm.OpResolve, Var: "s", Idx: idx(1), Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpResolve, Var: "s", Idx: idx(2), Act: xfdd.ActIncr, Next: 2},
			{Op: netasm.OpResolve, Var: "s", Idx: idx(3), Act: xfdd.ActIncr, Next: 3},
			{Op: netasm.OpFork, Seqs: []int{4, 6}},
			{Op: netasm.OpResolve, Var: "s", Idx: idx(10), Act: xfdd.ActIncr, Next: 5},
			{Op: netasm.OpFinish},
			{Op: netasm.OpResolve, Var: "s", Idx: idx(20), Act: xfdd.ActIncr, Next: 7},
			{Op: netasm.OpFinish},
		},
	}
	a := netasm.NewSwitch(0, progA, nil)
	owner := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"s": true})

	sp := widePacket()
	sp.Pkt = sp.Pkt.With(pkt.Outport, values.Int(1))
	rs, sps, err := a.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("fork copies: %d", len(rs))
	}
	for i := range rs {
		if sps[i].Hdr.PendingLen() != 4 {
			t.Fatalf("copy pending: %d, want 4", sps[i].Hdr.PendingLen())
		}
		if _, _, err := owner.Run(sps[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Shared prefix committed once per copy (both copies carry it), each
	// branch's write once.
	for v, want := range map[int64]int64{1: 2, 2: 2, 3: 2, 10: 1, 20: 1} {
		got := owner.Snapshot().Get("s", values.Tuple{values.Int(v)})
		if !values.Eq(got, values.Int(want)) {
			t.Fatalf("s[%d] = %v, want %d", v, got, want)
		}
	}
}

// TestUnownedLocalStateOps: the interpreter tolerated hand-built programs
// whose local state instructions touch variables outside Owns (writing
// them to the switch's local tables); linking must preserve that instead
// of producing an invalid table id.
func TestUnownedLocalStateOps(t *testing.T) {
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpStateWrite, Var: "ghost", Idx: []syntax.Expr{syntax.F(pkt.SrcPort)},
				Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpBranchState, Var: "ghost", Idx: []syntax.Expr{syntax.F(pkt.SrcPort)},
				ValE: syntax.V(values.Int(1)), True: 2, False: 3},
			{Op: netasm.OpFinish},
			{Op: netasm.OpFinish},
		},
	}
	sw := netasm.NewSwitch(0, p, nil) // owns nothing
	if _, _, err := sw.Run(widePacket()); err != nil {
		t.Fatalf("unowned local state op must execute, got %v", err)
	}
	sp := widePacket()
	if got := sw.Snapshot().Get("ghost", values.Tuple{sp.Pkt.Field(pkt.SrcPort)}); !values.Eq(got, values.Int(1)) {
		t.Fatalf("unowned local write lost: %v", got)
	}
}

// TestMissingValueExpr: an instruction requiring a value expression but
// built without one must error (the interpreter's EvalScalar behavior),
// not silently compare or store None.
func TestMissingValueExpr(t *testing.T) {
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpBranchState, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.SrcPort)},
				True: 1, False: 1}, // no ValE
			{Op: netasm.OpFinish},
		},
	}
	sw := netasm.NewSwitch(0, p, map[string]bool{"s": true})
	if _, _, err := sw.Run(widePacket()); err == nil {
		t.Fatal("expected error for missing value expression")
	}
}

// TestNonScalarValueError: a value expression that is not a scalar fails
// the instruction with the error the semantics raises for it, whether it
// names a vector of fields, of constants, or nothing.
func TestNonScalarValueError(t *testing.T) {
	for _, e := range []syntax.Expr{
		syntax.Vec(syntax.F(pkt.SrcPort), syntax.F(pkt.DstPort)),
		syntax.Vec(syntax.V(values.Int(1)), syntax.Vec(syntax.V(values.Int(2)), syntax.F(pkt.Proto))),
		syntax.Vec(),
	} {
		p := &netasm.Program{
			EntryOf: map[int]int{0: 0},
			Instrs: []netasm.Instr{
				{Op: netasm.OpBranchState, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.SrcPort)},
					ValE: e, True: 1, False: 1},
				{Op: netasm.OpFinish},
			},
		}
		sw := netasm.NewSwitch(0, p, map[string]bool{"s": true})
		_, _, err := sw.Run(widePacket())
		_, want := semantics.EvalScalar(e, widePacket().Pkt)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("%s: the VM fails with %v, the semantics with %v", e, err, want)
		}
	}
}

// TestRecordSizes pins the sizes of the records the packet path copies, so
// that growth in any of them shows as a failure.
func TestRecordSizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"values.Value", unsafe.Sizeof(values.Value{}), 24},
		{"pkt.Packet", unsafe.Sizeof(pkt.Packet{}), 480},
		{"PendingWrite", unsafe.Sizeof(netasm.PendingWrite{}), 160},
		{"Header", unsafe.Sizeof(netasm.Header{}), 224},
		{"SimPacket", unsafe.Sizeof(netasm.SimPacket{}), 704},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// BenchmarkWideIndexVisit measures a steady-state visit that tests and
// increments a state entry at a 5-tuple index, the flow key of five
// catalogue apps.
func BenchmarkWideIndexVisit(b *testing.B) {
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpBranchState, Var: "flows", Idx: wideIdx(),
				ValE: syntax.V(values.Int(0)), True: 1, False: 1},
			{Op: netasm.OpStateWrite, Var: "flows", Idx: wideIdx(), Act: xfdd.ActIncr, Next: 2},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 3},
			{Op: netasm.OpFinish},
		},
	}
	sw := netasm.NewSwitch(0, p, map[string]bool{"flows": true})
	sp := widePacket()
	rs, err := sw.RunAppend(nil, sp) // insert the entry: the visits below update it
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs, err = sw.RunAppend(rs[:0], sp); err != nil {
			b.Fatal(err)
		}
	}
}
