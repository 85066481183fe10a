package xfdd_test

import (
	"errors"
	"math/rand"
	"testing"

	"snap/internal/parser"
	"snap/internal/pkt"
	"snap/internal/polygen"
	"snap/internal/semantics"
	"snap/internal/state"
	"snap/internal/syntax"
	"snap/internal/xfdd"
)

func fuzzPacket(rng *rand.Rand) pkt.Packet { return polygen.Packet(rng) }

// TestFuzzEquivalence generates hundreds of random stateful programs and
// checks, packet by packet on a shared evolving store, that the xFDD
// translation matches the formal semantics exactly.
func TestFuzzEquivalence(t *testing.T) {
	programs := 400
	if testing.Short() {
		programs = 60
	}
	rng := rand.New(rand.NewSource(20160822))
	for i := 0; i < programs; i++ {
		checkProgram(t, polygen.New(rng).Policy(1+rng.Intn(3)), rng, 40)
	}
}

// checkProgram translates p and, unless it is statically rejected with a
// typed error, requires that the diagram respects the test order and that
// its Eval equals semantics.Eval on n random packets over one evolving
// store.
func checkProgram(t *testing.T, p syntax.Policy, rng *rand.Rand, n int) {
	t.Helper()
	d, order, err := xfdd.Translate(p)
	if err != nil {
		var race *xfdd.RaceError
		var unsup *xfdd.UnsupportedError
		if errors.As(err, &race) || errors.As(err, &unsup) {
			return
		}
		t.Fatalf("translate: %v\n%s", err, p)
	}
	checkOrdered(t, p, d, xfdd.Orderer{VarPos: order.Pos})

	semStore := state.NewStore()
	fddStore := state.NewStore()
	for j := 0; j < n; j++ {
		in := fuzzPacket(rng)
		want, err := semantics.Eval(p, semStore, in)
		if err != nil {
			// Dynamic read/write conflict the static check cannot see: the
			// semantics is undefined from here on.
			var ce *semantics.ConflictError
			if errors.As(err, &ce) {
				return
			}
			t.Fatalf("eval: %v\n%s", err, p)
		}
		gotPkts, gotStore, err := d.Eval(fddStore, in)
		if err != nil {
			t.Fatalf("xfdd eval: %v\n%s", err, p)
		}
		if !samePacketSet(want.Packets, gotPkts) {
			t.Fatalf("packet %d: outputs differ\nprogram: %s\npacket: %v\nsem: %v\nfdd: %v\nxFDD:\n%s",
				j, p, in, want.Packets, gotPkts, d)
		}
		if !want.Store.Equal(gotStore) {
			t.Fatalf("packet %d: stores differ\nprogram: %s\npacket: %v\nsem:\n%s\nfdd:\n%s\nxFDD:\n%s",
				j, p, in, want.Store, gotStore, d)
		}
		semStore, fddStore = want.Store, gotStore
	}
}

// TestFuzzOrderInvariant checks the test order on 200 programs in every
// mode, -short included.
func TestFuzzOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		p := polygen.New(rng).Policy(1 + rng.Intn(3))
		d, order, err := xfdd.Translate(p)
		if err != nil {
			continue
		}
		checkOrdered(t, p, d, xfdd.Orderer{VarPos: order.Pos})
	}
}

// checkOrdered requires tests to strictly increase along every
// root-to-leaf path of d.
func checkOrdered(t *testing.T, p syntax.Policy, d *xfdd.Diagram, ord xfdd.Orderer) {
	t.Helper()
	var walk func(n *xfdd.Diagram, prev []xfdd.Test)
	walk = func(n *xfdd.Diagram, prev []xfdd.Test) {
		if n.IsLeaf() {
			return
		}
		for _, pt := range prev {
			if ord.Compare(pt, n.Test) >= 0 {
				t.Fatalf("test %v at or before ancestor %v\n%s\n%s", n.Test, pt, p, d)
			}
		}
		next := append(append([]xfdd.Test{}, prev...), n.Test)
		walk(n.True, next)
		walk(n.False, next)
	}
	walk(d, nil)
}

// FuzzTranslate is the native fuzz target over the same property: the
// input seeds polygen, so the engine explores programs rather than bytes,
// and every program it reaches must either be rejected with a typed error
// or evaluate exactly as the semantics does and respect the test order.
func FuzzTranslate(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed, uint8(seed%4))
	}
	f.Fuzz(func(t *testing.T, seed int64, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		checkProgram(t, polygen.New(rng).Policy(1+int(depth%4)), rng, 16)
	})
}

// TestSequencedStateReads pins two miscompilations FuzzTranslate found in
// how ⊙ resolves a state test against the writes before it.
func TestSequencedStateReads(t *testing.T) {
	for _, src := range []string{
		// A multicast copy that does not write s must still see what its
		// sibling wrote: what follows runs against the merged store.
		`(srcport <- 1 + (s[dstport] <- 2 + outport <- 1)); atomic(s[True] = inport; outport <- True)`,
		`(srcport <- 1 + s[dstport]++); if s[1] = 1 then outport <- 3 else outport <- 4`,
		`(id + (s[dstport] <- inport; drop)); if s[srcport] = 2 then outport <- 3 else id`,
		// A write's index keeps the value its field had when the write
		// ran, whatever the sequence assigns to the field afterwards.
		`s[srcport] <- 1; srcport <- 5; if s[5] = 1 then outport <- 1 else outport <- 2`,
		`s[srcport] <- 1; srcport <- 5; if s[srcport] = 1 then outport <- 1 else outport <- 2`,
		`s[1] <- srcport; srcport <- 2; if s[1] = 2 then outport <- 1 else outport <- 2`,
	} {
		t.Run(src, func(t *testing.T) {
			checkProgram(t, parser.MustParse(src), rand.New(rand.NewSource(3)), 200)
		})
	}
}
