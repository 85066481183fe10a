package netasm

import (
	"fmt"
	"reflect"
	"testing"

	"snap/internal/pkt"
	"snap/internal/values"
)

// refRun is the reference the linked VM answers to on field-test programs:
// it walks the portable instructions branch by branch with Matches and Eq,
// as the VM did before chains collapsed into tables. It knows the
// stateless ops only.
func refRun(p *Program, sp SimPacket, maxSteps int) (Result, SimPacket, error) {
	pc, ok := p.EntryOf[sp.Hdr.Node]
	if !ok {
		return Result{}, sp, fmt.Errorf("no entry for node %d", sp.Hdr.Node)
	}
	for steps := 0; ; steps++ {
		if steps >= maxSteps {
			return Result{}, sp, fmt.Errorf("step limit exceeded")
		}
		if pc < 0 || pc >= len(p.Instrs) {
			return Result{}, sp, fmt.Errorf("pc %d out of range", pc)
		}
		ins := p.Instrs[pc]
		switch ins.Op {
		case OpNop, OpSetField:
			if ins.Op == OpSetField {
				sp.Pkt = sp.Pkt.With(ins.Field, ins.Val)
			}
			pc = ins.Next
		case OpBranchFV, OpBranchFF:
			hit := ins.Val.Matches(sp.Pkt.Field(ins.Field))
			if ins.Op == OpBranchFF {
				hit = values.Eq(sp.Pkt.Field(ins.Field), sp.Pkt.Field(ins.Field2))
			}
			pc = ins.False
			if hit {
				pc = ins.True
			}
		case OpFinish, OpDrop:
			sp.Hdr.Phase, sp.Hdr.OBSOut = PhaseDeliver, -1
			if v := sp.Pkt.Field(pkt.Outport); ins.Op == OpFinish && v.Kind == values.KindInt {
				sp.Hdr.OBSOut = int(v.Num)
			}
			if sp.Hdr.OBSOut < 0 {
				return Result{Outcome: Dropped}, sp, nil
			}
			return Result{Outcome: ToEgress}, sp, nil
		default:
			return Result{}, sp, fmt.Errorf("reference walker: op %d unsupported", ins.Op)
		}
	}
}

// chainProgram builds a false-edge run of field tests, one per constant, on
// field. Member i's true edge leads to a leaf setting outport to i; the
// last member's false edge leads to leaf len(consts), or to member loopTo
// when loopTo ≥ 0. Node 0 enters at the head, node 1 in the middle.
func chainProgram(field pkt.Field, consts []values.Value, loopTo int) *Program {
	n := len(consts)
	p := &Program{EntryOf: map[int]int{0: 0, 1: n / 2}}
	leaf := func(i int) int { return n + 2*i }
	for i, c := range consts {
		ins := Instr{Op: OpBranchFV, Field: field, Val: c, True: leaf(i), False: i + 1}
		if i == n-1 {
			ins.False = leaf(n)
			if loopTo >= 0 {
				ins.False = loopTo
			}
		}
		p.Instrs = append(p.Instrs, ins)
	}
	for i := 0; i <= n; i++ {
		p.Instrs = append(p.Instrs,
			Instr{Op: OpSetField, Field: pkt.Outport, Val: values.Int(int64(i)), Next: leaf(i) + 1},
			Instr{Op: OpFinish})
	}
	return p
}

// probeValues is every value kind a packet field may hold, aimed at the
// constants: each constant itself, the same number as a bool, an int, an
// address and its neighbour, the prefix literal around it, a string, and
// the two malformed addresses no constant of an IP table can equal.
func probeValues(consts []values.Value) []values.Value {
	out := []values.Value{values.None, values.String("x"), values.Bool(false), values.Bool(true)}
	for _, c := range consts {
		out = append(out, c,
			values.Int(c.Num), values.Int(c.Num+1), values.Bool(c.Num != 0),
			values.IP(uint32(c.Num)), values.IP(uint32(c.Num)+1), values.IP(uint32(c.Num)+255),
			values.Prefix(uint32(c.Num), 24), values.Prefix(uint32(c.Num), 16),
			values.Value{Kind: values.KindIP, Num: c.Num, Len: 24},
			values.Value{Kind: values.KindIP, Num: c.Num, Str: "x"})
	}
	return out
}

// sameAsReference runs every probe value through the linked switch and the
// reference, entering at the head and in the middle of the run, and fails
// on the first answer they do not share.
func sameAsReference(t testing.TB, p *Program, field pkt.Field, probes []values.Value) {
	t.Helper()
	const maxSteps = 200
	sw := NewSwitch(0, p, nil)
	sw.MaxSteps = maxSteps
	for _, node := range []int{0, 1} {
		for _, v := range probes {
			sp := SimPacket{
				Pkt: pkt.New(map[pkt.Field]values.Value{field: v}),
				Hdr: Header{OBSIn: 1, OBSOut: -1, Node: node, Seq: -1, Phase: PhaseEval},
			}
			want, wantSP, werr := refRun(p, sp, maxSteps)
			got, gotSP, gerr := sw.Run(sp)
			switch {
			case werr != nil || gerr != nil:
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("node %d, %s = %#v: reference error %v, linked error %v", node, field, v, werr, gerr)
				}
			case len(got) != 1 || !reflect.DeepEqual(got[0], want) || !reflect.DeepEqual(gotSP[0], wantSP):
				t.Fatalf("node %d, %s = %#v: linked %+v, reference %+v\n%s", node, field, v, got, want, p)
			}
		}
	}
}

// heads lists the pcs the link step made table instructions.
func heads(lp *Linked) []int {
	var out []int
	for pc := range lp.ins {
		if lp.ins[pc].op == opChain {
			out = append(out, pc)
		}
	}
	return out
}

func ints(ns ...int64) []values.Value {
	out := make([]values.Value, len(ns))
	for i, n := range ns {
		out[i] = values.Int(n)
	}
	return out
}

func subnets(length uint8, thirds ...byte) []values.Value {
	out := make([]values.Value, len(thirds))
	for i, b := range thirds {
		out[i] = values.Prefix(uint32(10)<<24|uint32(b)<<8, length)
		if length == 16 {
			out[i] = values.Prefix(uint32(10)<<24|uint32(b)<<16, length)
		}
	}
	return out
}

func cat(parts ...[]values.Value) []values.Value {
	var out []values.Value
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestLinkCollapsesChains: each shape of run collapses into one table at
// its head, each refusal leaves its run as branches (or cuts it where the
// refusal says), and the linked VM answers as the branch-by-branch
// reference does for every value kind of the field, entered at the head
// and in the middle of the run.
func TestLinkCollapsesChains(t *testing.T) {
	noncanonical := values.Value{Kind: values.KindPrefix, Num: int64(10<<24 | 4<<8 | 1), Len: 24}
	cases := []struct {
		name   string
		field  pkt.Field
		consts []values.Value
		loopTo int
		heads  []int
	}{
		{"exact ints", pkt.Inport, ints(1, 2, 3, 4, 5, 6, 7, 8), -1, []int{0}},
		{"exact IPs", pkt.DstIP, []values.Value{values.IPv4(10, 0, 0, 1), values.IPv4(10, 0, 0, 2),
			values.IPv4(10, 0, 1, 1), values.IPv4(192, 168, 0, 1), values.IPv4(10, 0, 0, 3)}, -1, []int{0}},
		{"one-length prefixes", pkt.DstIP, subnets(24, 1, 2, 3, 4, 5, 6), -1, []int{0}},
		{"bools and ints in one class", pkt.Inport, []values.Value{values.Bool(false), values.Bool(true),
			values.Int(2), values.Int(3), values.Int(4)}, -1, []int{0}},
		// Bool(true) ≡ Int(1): the run holds the key when Int(1) comes, so
		// it ends there and a second run starts at Int(1).
		{"Bool(1) beside Int(1)", pkt.Inport, cat(ints(2, 3, 4), []values.Value{values.Bool(true)}, ints(1, 5, 6, 7)), -1, []int{0, 4}},
		{"at the cut-off", pkt.Inport, ints(1, 2, 3, 4), -1, []int{0}},

		// The run cuts at the second 1, three members short of a table, and
		// restarts there.
		{"overlapping constants", pkt.Inport, ints(1, 2, 3, 1, 4, 5, 6), -1, []int{3}},
		{"below the cut-off", pkt.Inport, ints(1, 2, 3), -1, nil},
		{"mixed key classes", pkt.DstIP, cat(
			[]values.Value{values.IPv4(10, 0, 1, 0), values.IPv4(10, 0, 2, 0), values.IPv4(10, 0, 3, 0)},
			subnets(24, 4, 5, 6)), -1, nil},
		{"two prefix lengths", pkt.DstIP, cat(subnets(24, 1, 2, 3), subnets(16, 4, 5, 6)), -1, nil},
		{"non-canonical prefix", pkt.DstIP, cat(subnets(24, 1, 2, 3), []values.Value{noncanonical}, subnets(24, 5, 6, 7)), -1, nil},
		// Every member continues another: no head, no table.
		{"false-edge cycle", pkt.Inport, ints(1, 2, 3, 4, 5, 6), 0, nil},
		// Entered from outside, the run meets its own keys again at pc 1
		// and restarts there; each pc heads at most once.
		{"cycle behind a head", pkt.Inport, ints(1, 2, 3, 4, 5, 6), 1, []int{0, 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := chainProgram(c.field, c.consts, c.loopTo)
			if got := heads(Link(p, soloSpace(p, nil), nil)); !reflect.DeepEqual(got, c.heads) {
				t.Fatalf("table heads %v, want %v\n%s", got, c.heads, p)
			}
			sameAsReference(t, p, c.field, probeValues(c.consts))
		})
	}

	// Another field in between: two runs of three, neither long enough.
	p := chainProgram(pkt.Inport, ints(1, 2, 3, 4, 5, 6, 7), -1)
	p.Instrs[3].Field = pkt.SrcPort
	if got := heads(Link(p, soloSpace(p, nil), nil)); got != nil {
		t.Fatalf("another field in between: table heads %v, want none", got)
	}
	sameAsReference(t, p, pkt.Inport, probeValues(ints(1, 2, 3, 4, 5, 6, 7)))
	sameAsReference(t, p, pkt.SrcPort, probeValues(ints(1, 2, 3, 4, 5, 6, 7)))
}

// FuzzLinkedChains: a program decoded from bytes — runs of field tests over
// a few fields, with mixed kinds, prefix lengths, repeated constants and
// false edges that may jump back — linked and run must answer as the
// branch-by-branch reference for a decoded packet value, entered at the
// head or in the middle.
func FuzzLinkedChains(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 1, 3, 1, 4, 1, 5, 1, 6, 0, 3})
	f.Add([]byte{1, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 2, 4, 1})
	f.Add([]byte{1, 2, 9, 2, 9, 2, 9, 4, 9, 2, 9, 2, 9, 2, 9, 2, 9, 3, 1})
	f.Add([]byte{0, 1, 1, 1, 2, 1, 3, 1, 4, 1, 5, 9, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		fields := []pkt.Field{pkt.Inport, pkt.DstIP, pkt.SrcPort}
		lengths := []uint8{8, 16, 24, 32}
		value := func(kind, b byte) values.Value {
			addr := uint32(10)<<24 | uint32(b%8)<<8
			switch kind % 8 {
			case 0:
				return values.Int(int64(b % 8))
			case 1:
				return values.Bool(b%2 == 1)
			case 2:
				return values.IP(addr)
			case 3:
				return values.Prefix(addr, lengths[b/8%4])
			case 4:
				return values.Value{Kind: values.KindPrefix, Num: int64(addr | 1), Len: 24}
			case 5:
				return values.String(fmt.Sprint(b % 3))
			case 6:
				return values.Value{Kind: values.KindIP, Num: int64(addr), Len: b % 2 * 24}
			}
			return values.None
		}
		field := fields[int(next())%len(fields)]
		n := int(next())%24 + 1
		consts := make([]values.Value, n)
		for i := range consts {
			consts[i] = value(next(), next())
		}
		p := chainProgram(field, consts, -1)
		for i := range consts {
			switch b := next(); {
			case b%7 == 1: // a member on another field
				p.Instrs[i].Field = fields[int(b/7)%len(fields)]
			case b%7 == 2: // a false edge back into the run
				p.Instrs[i].False = int(b/7) % n
			case b%7 == 3: // a true edge off the program
				p.Instrs[i].True = -1
			}
		}
		probe := value(next(), next())
		sameAsReference(t, p, field, []values.Value{probe})
		sameAsReference(t, p, pkt.SrcPort, []values.Value{probe})
	})
}
