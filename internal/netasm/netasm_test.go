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
	rs, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Outcome != netasm.ToEgress {
		t.Fatalf("results: %+v", rs)
	}
	if rs[0].Packet.Hdr.OBSOut != 6 {
		t.Fatalf("outport: %d", rs[0].Packet.Hdr.OBSOut)
	}
	if got := sw.Snapshot().Get("c", values.Tuple{values.Int(1)}); !values.Eq(got, values.Int(1)) {
		t.Fatalf("counter: %v", got)
	}

	// The false branch leaves state untouched and has no outport: drop.
	rs, err = sw.Run(mkPacket(80))
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
	rs, err := a.Run(sp)
	if err != nil {
		t.Fatal(err)
	}
	// A's private space holds only s, so s is id 0.
	if rs[0].Outcome != netasm.NeedState || rs[0].StateVarID != 0 {
		t.Fatalf("suspend: %+v", rs[0])
	}
	// Resume on B: the entry for node 0 is the real state branch.
	rs, err = b.Run(rs[0].Packet)
	if err != nil {
		t.Fatal(err)
	}
	// s[53] is absent → False → false branch → no outport → dropped.
	if rs[0].Outcome != netasm.Dropped {
		t.Fatalf("expected drop on false branch: %+v", rs[0])
	}
	// Seed the state and retry: true branch assigns outport 2.
	b.StateSet("s", values.Tuple{values.Int(53)}, values.Bool(true))
	rs, err = b.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.ToEgress || rs[0].Packet.Hdr.OBSOut != 2 {
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

	rs, err := a.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Outcome != netasm.NeedState || r.Packet.Hdr.PendingLen() != 2 {
		t.Fatalf("pending resolution: %+v", r)
	}
	rs, err = b.Run(r.Packet)
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
	rs, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("multicast copies: %d", len(rs))
	}
	outs := map[int]bool{}
	for _, r := range rs {
		outs[r.Packet.Hdr.OBSOut] = true
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
	rs, err := sw.Run(mkPacket(53))
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Outcome != netasm.NeedState {
		t.Fatalf("dropped packet with pending writes must still travel: %+v", rs[0])
	}
	owner := netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"flag": true})
	rs, err = owner.Run(rs[0].Packet)
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
	if _, err := sw.Run(mkPacket(1)); err == nil {
		t.Fatal("expected step-limit error")
	}
}
