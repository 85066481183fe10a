package netasm_test

import (
	"fmt"
	"reflect"
	"testing"

	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/values"
	"snap/internal/xfdd"
)

// TestStateWriteHook: OnStateWrite fires exactly once per mutation, for
// every act, for narrow and wide indices, on a local write and on a carried
// write committed at the owner, and it carries the write as the VM holds it
// with the post-write value. s holds 5 at the packet's index before the
// visit; set writes 7. A switch with no hook ends with the same tables.
func TestStateWriteHook(t *testing.T) {
	narrow := []syntax.Expr{syntax.F(pkt.SrcPort), syntax.F(pkt.DstPort)}
	narrowTuple := values.Tuple{values.Int(1234), values.Int(80)}
	narrowVec := values.VecOf(narrowTuple)
	wideTuple := values.Tuple{values.IPv4(10, 0, 1, 1), values.IPv4(10, 0, 2, 2),
		values.Int(1234), values.Int(80), values.Int(6)}

	acts := []struct {
		act  xfdd.ActKind
		post int64
	}{{xfdd.ActSet, 7}, {xfdd.ActIncr, 6}, {xfdd.ActDecr, 4}}
	for _, a := range acts {
		for _, wide := range []bool{false, true} {
			for _, carried := range []bool{false, true} {
				name := fmt.Sprintf("act=%d/wide=%v/carried=%v", a.act, wide, carried)
				t.Run(name, func(t *testing.T) {
					idx, tuple := narrow, narrowTuple
					want := netasm.PendingWrite{VarID: 0, Act: a.act, Val: values.Int(a.post), Idx: narrowVec}
					if wide {
						idx, tuple = wideIdx(), wideTuple
						want = netasm.PendingWrite{VarID: 0, Act: a.act, Val: values.Int(a.post), Idx: values.VecOf(wideTuple)}
					}
					op := netasm.OpStateWrite
					if carried {
						op = netasm.OpResolve
					}
					ins := netasm.Instr{Op: op, Var: "s", Idx: idx, Act: a.act, Next: 1}
					if a.act == xfdd.ActSet {
						ins.ValE = syntax.V(values.Int(7))
					}
					prog := &netasm.Program{EntryOf: map[int]int{0: 0}, Instrs: []netasm.Instr{
						ins,
						{Op: netasm.OpSetField, Field: pkt.Outport, Val: values.Int(1), Next: 2},
						{Op: netasm.OpFinish},
					}}
					owns := map[string]bool{"s": true}

					// run visits the evaluating switch and, for a carried
					// write, the owner; hooked switches record every call.
					run := func(hooked bool) (*netasm.Switch, []netasm.PendingWrite) {
						var got []netasm.PendingWrite
						eval := netasm.NewSwitch(0, prog, owns)
						owner := eval
						if carried {
							eval = netasm.NewSwitch(0, prog, nil)
							owner = netasm.NewSwitch(1, &netasm.Program{EntryOf: map[int]int{}}, owns)
						}
						if hooked {
							hook := func(w netasm.PendingWrite) { got = append(got, w) }
							eval.OnStateWrite, owner.OnStateWrite = hook, hook
						}
						if !owner.StateSet("s", tuple, values.Int(5)) {
							t.Fatal("owner has no table for s")
						}
						rs, sps, err := eval.Run(widePacket())
						if err != nil {
							t.Fatal(err)
						}
						if carried {
							if rs[0].Outcome != netasm.NeedState || rs[0].StateVarID != 0 {
								t.Fatalf("carried write must suspend toward s: %+v", rs[0])
							}
							if rs, sps, err = owner.Run(sps[0]); err != nil {
								t.Fatal(err)
							}
						}
						if rs[0].Outcome != netasm.ToEgress {
							t.Fatalf("visit ends %v, want ToEgress", rs[0].Outcome)
						}
						return owner, got
					}

					owner, got := run(true)
					if len(got) != 1 {
						t.Fatalf("hook fired %d times, want 1: %+v", len(got), got)
					}
					if !reflect.DeepEqual(got[0], want) {
						t.Fatalf("hook saw %+v\nwant %+v", got[0], want)
					}
					wantStore := state.NewStore()
					wantStore.Set("s", tuple, values.Int(a.post))
					if snap := owner.Snapshot(); !snap.Equal(wantStore) {
						t.Fatalf("owner tables %s, want %s", snap, wantStore)
					}
					if bare, _ := run(false); !bare.Snapshot().Equal(wantStore) {
						t.Fatalf("switch without a hook ends with %s, want %s", bare.Snapshot(), wantStore)
					}
				})
			}
		}
	}
}

// TestStateSetNeedsTable: a switch's tables are the ones the link step gave
// it; seeding a variable it has no table for writes nothing.
func TestStateSetNeedsTable(t *testing.T) {
	sw := netasm.NewSwitch(0, &netasm.Program{EntryOf: map[int]int{}}, map[string]bool{"s": true})
	if !sw.StateSet("s", values.Tuple{values.Int(1)}, values.Int(10)) {
		t.Fatal("owned variable refused")
	}
	if sw.StateSet("elsewhere", values.Tuple{values.Int(2)}, values.Bool(true)) {
		t.Fatal("variable without a table accepted")
	}
	if _, ok := sw.TableRef("elsewhere"); ok || sw.Snapshot().Len("elsewhere") != 0 {
		t.Fatal("a refused seed left a table behind")
	}
	if snap := sw.Snapshot(); len(snap.Vars()) != 1 || len(snap.Entries("s")) != 1 {
		t.Fatalf("snapshot: %s", snap)
	}
}
