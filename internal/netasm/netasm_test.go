package netasm_test

import (
	"testing"

	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// prog builds a tiny hand-written program, its leaves behind forks so leaf
// semantics are exercised; progListing is its disassembly.
//
//	0: bfv   srcport = 53 ? 1 : 5
//	1: fork  [2]
//	2: stw   c[inport]++ -> 3       (local)
//	3: mod   outport <- 6 -> 4
//	4: fin
//	5: fork  [6]
//	6: fin
func prog() *netasm.Program {
	p := &netasm.Program{EntryOf: map[int]int{0: 0}}
	p.Instrs = []netasm.Instr{
		{Op: netasm.OpBranchFV, Field: pkt.SrcPort, Val: values.Int(53), True: 1, False: 5},
		{Op: netasm.OpFork, Seqs: []int{2}},
		{Op: netasm.OpStateWrite, Var: "c", Idx: []syntax.Expr{syntax.F(pkt.Inport)}, Act: xfdd.ActIncr, Next: 3},
		{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(6), Next: 4},
		{Op: netasm.OpFinish},
		{Op: netasm.OpFork, Seqs: []int{6}},
		{Op: netasm.OpFinish},
	}
	return p
}

const progListing = `   0: bfv   srcport = 53 ? 1 : 5
   1: fork  [2]
   2: stw   c[inport]++ -> 3
   3: mod   outport <- 6 -> 4
   4: fin
   5: fork  [6]
   6: fin
`

// TestDisassembly: state instructions print their action in the policy's
// surface syntax, index and set value included.
func TestDisassembly(t *testing.T) {
	if got := prog().String(); got != progListing {
		t.Fatalf("disassembly:\n%s\nwant:\n%s", got, progListing)
	}
	pair := []syntax.Expr{syntax.F(pkt.SrcIP), syntax.F(pkt.DstIP)}
	for _, c := range []struct {
		ins  netasm.Instr
		want string
	}{
		{netasm.Instr{Op: netasm.OpResolve, Var: "established", Idx: pair, Act: xfdd.ActSet,
			ValE: syntax.V(values.Bool(true)), Next: 4}, "rsv   established[srcip][dstip] <- True -> 4"},
		{netasm.Instr{Op: netasm.OpStateWrite, Var: "susp-client", Idx: pair[1:], Act: xfdd.ActDecr, Next: 2},
			"stw   susp-client[dstip]-- -> 2"},
		{netasm.Instr{Op: netasm.OpStateWrite, Var: "last", Idx: pair[:1], Act: xfdd.ActSet,
			ValE: syntax.F(pkt.DstPort), Next: 1}, "stw   last[srcip] <- dstport -> 1"},
		{netasm.Instr{Op: netasm.OpBranchState, Var: "established", Idx: pair,
			ValE: syntax.V(values.Bool(true)), True: 1, False: 2}, "bst   established[srcip][dstip] = True ? 1 : 2"},
	} {
		if got := c.ins.String(); got != c.want {
			t.Errorf("%q, want %q", got, c.want)
		}
	}
}

func mkPacket(srcport int64) netasm.SimPacket {
	return netasm.SimPacket{
		Pkt: pkt.New(map[pkt.Field]values.Value{
			pkt.Inport:  values.Int(1),
			pkt.SrcPort: values.Int(srcport),
		}),
		Hdr: netasm.Header{OBSIn: 1, OBSOut: -1, Node: 0, Seq: -1, Phase: netasm.PhaseEval},
	}
}

func TestBranchAndWrite(t *testing.T) {
	sw := netasm.NewSwitch(0, prog(), map[string]bool{"c": true})
	rs, sps, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Outcome != netasm.ToEgress {
		t.Fatalf("results: %+v", rs)
	}
	if sps[0].Hdr.OBSOut != 6 {
		t.Fatalf("outport: %d", sps[0].Hdr.OBSOut)
	}
	if got := sw.Snapshot().Get("c", values.Tuple{values.Int(1)}); !values.Eq(got, values.Int(1)) {
		t.Fatalf("counter: %v", got)
	}

	// The false branch leaves state untouched and has no outport: drop.
	rs, sps, err = sw.Run(mkPacket(80))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Outcome != netasm.Dropped {
		t.Fatalf("false branch: %+v", rs)
	}
}

func TestSuspendAndResume(t *testing.T) {
	// Switch A holds nothing: its state test is a suspend stub. Switch B
	// owns "s" and resumes at the same node id.
	progA := &netasm.Program{
		EntryOf: map[int]int{0: 0, 1: 1, 2: 2},
		Instrs: []netasm.Instr{
			{Op: netasm.OpSuspend, Var: "s", Resume: 0},
			{Op: netasm.OpFork, Seqs: []int{3}},
			{Op: netasm.OpFork, Seqs: []int{4}},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(2), Next: 5},
			{Op: netasm.OpFinish},
			{Op: netasm.OpFinish},
		},
	}
	progB := &netasm.Program{
		EntryOf: map[int]int{0: 0, 1: 1, 2: 2},
		Instrs: []netasm.Instr{
			{Op: netasm.OpBranchState, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.SrcPort)},
				ValE: syntax.V(values.Bool(true)), True: 1, False: 2},
			{Op: netasm.OpFork, Seqs: []int{3}},
			{Op: netasm.OpFork, Seqs: []int{4}},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(2), Next: 5},
			{Op: netasm.OpFinish},
			{Op: netasm.OpFinish},
		},
	}
	a := netasm.NewSwitch(0, progA, nil)
	b := netasm.NewSwitch(1, progB, map[string]bool{"s": true})

	sp := mkPacket(53)
	rs, sps, err := a.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	// A's private space holds only s, so s is id 0.
	if rs[0].Outcome != netasm.NeedState || rs[0].StateVarID != 0 {
		t.Fatalf("suspend: %+v", rs[0])
	}
	// Resume on B: the entry for node 0 is the real state branch.
	rs, sps, err = b.Run(sps[0])
	if err != nil {
		t.Fatal(err)
	}
	// s[53] is absent → False → false branch → no outport → dropped.
	if rs[0].Outcome != netasm.Dropped {
		t.Fatalf("expected drop on false branch: %+v", rs[0])
	}
	// Seed the state and retry: true branch assigns outport 2.
	b.StateSet("s", values.Tuple{values.Int(53)}, values.Bool(true))
	rs, sps, err = b.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.ToEgress || sps[0].Hdr.OBSOut != 2 {
		t.Fatalf("resume: %+v", rs[0])
	}
}

func TestPendingWritesCommitInOrder(t *testing.T) {
	// A resolves two writes to remote "s" (set then increment); B owns s
	// and must apply both in order.
	progA := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpFork, Seqs: []int{1}},
			{Op: netasm.OpResolve, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.Inport)},
				ValE: syntax.V(values.Int(10)), Act: xfdd.ActSet, Next: 2},
			{Op: netasm.OpResolve, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.Inport)},
				Act: xfdd.ActIncr, Next: 3},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 4},
			{Op: netasm.OpFinish},
		},
	}
	a := netasm.NewSwitch(0, progA, nil)
	b := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"s": true})

	rs, sps, err := a.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Outcome != netasm.NeedState || sps[0].Hdr.PendingLen() != 2 {
		t.Fatalf("pending resolution: %+v", r)
	}
	rs, sps, err = b.Run(sps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.ToEgress {
		t.Fatalf("after commit: %+v", rs[0])
	}
	if got := b.Snapshot().Get("s", values.Tuple{values.Int(1)}); !values.Eq(got, values.Int(11)) {
		t.Fatalf("committed value: %v, want 11 (set 10 then ++)", got)
	}
}

func TestForkMulticast(t *testing.T) {
	// A leaf with two sequences: one modifies outport to 1, the other to 2.
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpFork, Seqs: []int{1, 3}},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 2},
			{Op: netasm.OpFinish},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(2), Next: 4},
			{Op: netasm.OpFinish},
		},
	}
	sw := netasm.NewSwitch(0, p, nil)
	rs, sps, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("multicast copies: %d", len(rs))
	}
	outs := map[int]bool{}
	for i := range rs {
		outs[sps[i].Hdr.OBSOut] = true
	}
	if !outs[1] || !outs[2] {
		t.Fatalf("outports: %v", outs)
	}
}

func TestDropCommitsPending(t *testing.T) {
	// write remote state, then drop: the copy is dropped but carries the
	// pending write (udp-flood's "flag and drop" pattern).
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpFork, Seqs: []int{1}},
			{Op: netasm.OpResolve, Var: "flag", Idx: []syntax.Expr{syntax.F(pkt.Inport)},
				ValE: syntax.V(values.Bool(true)), Act: xfdd.ActSet, Next: 2},
			{Op: netasm.OpDrop},
		},
	}
	sw := netasm.NewSwitch(0, p, nil)
	rs, sps, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.NeedState {
		t.Fatalf("dropped packet with pending writes must still travel: %+v", rs[0])
	}
	owner := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"flag": true})
	rs, sps, err = owner.Run(sps[0])
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.Dropped {
		t.Fatalf("after commit the copy drops: %+v", rs[0])
	}
	if got := owner.Snapshot().Get("flag", values.Tuple{values.Int(1)}); !got.True() {
		t.Fatal("pending write lost on dropped packet")
	}
}

func TestStepLimitGuards(t *testing.T) {
	// A self-loop program trips the step guard instead of hanging.
	p := &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs:  []netasm.Instr{{Op: netasm.OpNop, Next: 0}},
	}
	sw := netasm.NewSwitch(0, p, nil)
	sw.MaxSteps = 100
	if _, _, err := sw.Run(mkPacket(1)); err == nil {
		t.Fatal("expected step-limit error")
	}
}

// TestVisitRunsInPlace: Visit runs the packet it is handed where it lies.
// Every single-copy visit returns one result naming that packet, emits no
// fork copy, and leaves in *sp exactly the header and packet the result
// describes: the outport, phase, resume node, sequence and pending writes
// the program produced.
func TestVisitRunsInPlace(t *testing.T) {
	resolve := []netasm.Instr{
		{Op: netasm.OpFork, Seqs: []int{1}},
		{Op: netasm.OpResolve, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.Inport)},
			ValE: syntax.V(values.Int(10)), Act: xfdd.ActSet, Next: 2},
		{Op: netasm.OpResolve, Var: "s", Idx: []syntax.Expr{syntax.F(pkt.Inport)}, Act: xfdd.ActIncr, Next: 3},
		{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(4), Next: 4},
		{Op: netasm.OpFinish},
	}
	suspend := []netasm.Instr{{Op: netasm.OpSuspend, Var: "s", Resume: 7}}
	owner := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"s": true})
	for _, c := range []struct {
		name    string
		sw      *netasm.Switch
		sp      func() netasm.SimPacket
		outcome netasm.Outcome
		phase   netasm.Phase
		out     int64 // outport field, -1 when unset
		obsOut  int
		node    int
		seq     int
		pending int
	}{
		{"finish", netasm.NewSwitch(0, prog(), map[string]bool{"c": true}), func() netasm.SimPacket { return mkPacket(53) },
			netasm.ToEgress, netasm.PhaseDeliver, 6, 6, 0, 0, 0},
		{"no outport", netasm.NewSwitch(0, prog(), map[string]bool{"c": true}), func() netasm.SimPacket { return mkPacket(80) },
			netasm.Dropped, netasm.PhaseDeliver, -1, -1, 0, 0, 0},
		{"suspend", netasm.NewSwitch(0, &netasm.Program{EntryOf: map[int]int{0: 0}, Instrs: suspend}, nil),
			func() netasm.SimPacket { return mkPacket(53) },
			netasm.NeedState, netasm.PhaseEval, -1, -1, 7, -1, 0},
		{"resolve", netasm.NewSwitch(0, &netasm.Program{EntryOf: map[int]int{0: 0}, Instrs: resolve}, nil),
			func() netasm.SimPacket { return mkPacket(53) },
			netasm.NeedState, netasm.PhaseDeliver, 4, 4, 0, 0, 2},
		{"commit", owner, func() netasm.SimPacket {
			sw := netasm.NewSwitch(0, &netasm.Program{EntryOf: map[int]int{0: 0}, Instrs: resolve}, nil)
			_, sps, err := sw.Run(mkPacket(53))
			if err != nil {
				t.Fatal(err)
			}
			return sps[0]
		}, netasm.ToEgress, netasm.PhaseDeliver, 4, 4, 0, 0, 0},
	} {
		sp := c.sp()
		var forks []netasm.SimPacket
		rs, err := c.sw.Visit(nil, &sp, &forks)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(rs) != 1 || rs[0].Copy != 0 || rs[0].Slot(&sp, forks) != &sp || len(forks) != 0 {
			t.Fatalf("%s: results %+v, %d fork copies; want one naming the packet passed in", c.name, rs, len(forks))
		}
		out := int64(-1)
		if v := sp.Pkt.Field(pkt.Outport); v.Kind == values.KindInt {
			out = v.Num
		}
		h := sp.Hdr
		if rs[0].Outcome != c.outcome || h.Phase != c.phase || out != c.out || h.OBSOut != c.obsOut ||
			h.OBSIn != 1 || h.Node != c.node || h.Seq != c.seq || h.PendingLen() != c.pending {
			t.Errorf("%s: outcome %v, packet outport %d, header %+v with %d pending; want %v, %d, phase %v obsout %d node %d seq %d, %d pending",
				c.name, rs[0].Outcome, out, h, h.PendingLen(), c.outcome, c.out, c.phase, c.obsOut, c.node, c.seq, c.pending)
		}
	}
	if got := owner.Snapshot().Get("s", values.Tuple{values.Int(1)}); !values.Eq(got, values.Int(11)) {
		t.Fatalf("committed s[1] = %v, want 11", got)
	}
}

// TestForkCopiesStartFromThePreForkPacket: a two-sequence fork copies the
// packet once per sequence into the fork buffer, and each copy starts from
// the packet as it was at the fork: neither branch's field writes nor its
// resolved write leak into the other's copy, and the packet passed in is
// no result's. The second round runs in a slot whose header kept spill
// storage through Enter, which the copies must not share.
func TestForkCopiesStartFromThePreForkPacket(t *testing.T) {
	idx := func(f pkt.Field) []syntax.Expr { return []syntax.Expr{syntax.F(f)} }
	fork := netasm.NewSwitch(0, &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpResolve, Var: "s", Idx: idx(pkt.Inport), ValE: syntax.V(values.Int(7)), Act: xfdd.ActSet, Next: 1},
			{Op: netasm.OpFork, Seqs: []int{2, 6}},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 3},
			{Op: netasm.OpSetField, Field: pkt.EthSrc, Val: values.Int(5), Next: 4},
			{Op: netasm.OpResolve, Var: "a", Idx: idx(pkt.SrcPort), Act: xfdd.ActIncr, Next: 5},
			{Op: netasm.OpFinish},
			{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(2), Next: 7},
			{Op: netasm.OpSetField, Field: pkt.DstPort, Val: values.Int(99), Next: 8},
			{Op: netasm.OpResolve, Var: "b", Idx: idx(pkt.Inport), Act: xfdd.ActDecr, Next: 9},
			{Op: netasm.OpFinish},
		},
	}, nil)
	spill := netasm.NewSwitch(0, &netasm.Program{
		EntryOf: map[int]int{0: 0},
		Instrs: []netasm.Instr{
			{Op: netasm.OpResolve, Var: "s", Idx: idx(pkt.Inport), Act: xfdd.ActIncr, Next: 1},
			{Op: netasm.OpResolve, Var: "s", Idx: idx(pkt.SrcPort), Act: xfdd.ActIncr, Next: 2},
			{Op: netasm.OpFinish},
		},
	}, nil)

	var slot netasm.SimPacket
	var forks []netasm.SimPacket
	var rs []netasm.Result
	for round := 0; round < 2; round++ {
		if round == 1 {
			// Leave spill storage in the slot's header, as a walk does.
			slot = mkPacket(53)
			if _, err := spill.Visit(nil, &slot, &forks); err != nil || slot.Hdr.PendingLen() != 2 {
				t.Fatalf("spill visit: %v, %d pending", err, slot.Hdr.PendingLen())
			}
		}
		slot.Pkt = mkPacket(53).Pkt
		slot.Hdr.Enter(1, 0)
		forks = forks[:0]
		var err error
		if rs, err = fork.Visit(rs[:0], &slot, &forks); err != nil {
			t.Fatal(err)
		}
		if len(rs) != 2 || len(forks) != 2 {
			t.Fatalf("round %d: %d results, %d fork copies; want 2 and 2", round, len(rs), len(forks))
		}
		for i, want := range []struct {
			out, ethsrc, dstport values.Value
			act                  xfdd.ActKind
		}{
			{values.Int(1), values.Int(5), values.None, xfdd.ActIncr},
			{values.Int(2), values.None, values.Int(99), xfdd.ActDecr},
		} {
			r := rs[i]
			cp := r.Slot(&slot, forks)
			if r.Copy != int32(i+1) || cp != &forks[i] || r.Outcome != netasm.NeedState {
				t.Fatalf("round %d, result %d: %+v, want fork copy %d suspended toward its writes", round, i, r, i+1)
			}
			p, h := &cp.Pkt, &cp.Hdr
			if !values.Eq(p.Field(pkt.Outport), want.out) || !values.Eq(p.Field(pkt.EthSrc), want.ethsrc) ||
				!values.Eq(p.Field(pkt.DstPort), want.dstport) || h.Seq != i || h.OBSOut != int(want.out.Num) {
				t.Errorf("round %d, copy %d: packet %v, header %+v", round, i, p, *h)
			}
			if h.PendingLen() != 2 || h.PendingAt(0).Act != xfdd.ActSet || h.PendingAt(1).Act != want.act {
				t.Errorf("round %d, copy %d: %d pending, want the pre-fork set then its own %v", round, i, h.PendingLen(), want.act)
			}
		}
	}
}
