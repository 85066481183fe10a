package values

import "testing"

func TestVecRoundTrip(t *testing.T) {
	for _, in := range []Tuple{
		{Int(1), Bool(true), IPv4(10, 0, 0, 1), String("x")},
		{IPv4(10, 0, 1, 1), IPv4(10, 0, 2, 2), Int(1234), Int(80), Int(6)},
		{Int(1), Int(2), Int(3), Int(4), String("five"), Prefix(10<<24, 8), Bool(false)},
	} {
		v := VecOf(in)
		if v.Len() != len(in) {
			t.Fatalf("VecOf(%v): len %d", in, v.Len())
		}
		out := v.Tuple()
		if len(out) != len(in) {
			t.Fatalf("round trip length: %d, want %d", len(out), len(in))
		}
		for i := range in {
			if in[i] != out[i] || v.At(i) != in[i] {
				t.Fatalf("round trip[%d]: %v and %v, want %v", i, out[i], v.At(i), in[i])
			}
		}
	}
}

// Push spills past MaxVec; copies taken after the fill share the spill,
// and a push on one copy never reaches the values another copy reads.
func TestVecPush(t *testing.T) {
	var v Vec
	for i := 0; i < MaxVec+3; i++ {
		v.Push(Int(int64(i)))
	}
	if v.Len() != MaxVec+3 || v.At(1) != Int(1) || v.At(MaxVec+2) != Int(MaxVec+2) {
		t.Fatalf("contents: %+v", v)
	}
	c := v
	if &c.spill[0] != &v.spill[0] {
		t.Fatal("a copy does not share the spill")
	}
	c.Push(Int(99))
	if v.Len() != MaxVec+3 || c.Len() != MaxVec+4 || c.At(MaxVec+3) != Int(99) {
		t.Fatalf("push on a copy: original %+v, copy %+v", v, c)
	}
	var narrow Vec
	for i := 0; i < MaxVec; i++ {
		narrow.Push(Int(int64(i)))
	}
	if narrow.spill != nil {
		t.Fatal("a vector of MaxVec values spilled")
	}
	// VecOf shares the tuple's tail, capped, so a push on the vector
	// leaves the tuple's backing array alone.
	in := make(Tuple, MaxVec+1, MaxVec+4)
	w := VecOf(in)
	w.Push(Int(7))
	if in[:MaxVec+2][MaxVec+1] != None {
		t.Fatal("a push on VecOf's vector wrote into the tuple's spare capacity")
	}
}

// Canon must collapse exactly the Eq-equivalence classes: after
// canonicalization, semantic equality coincides with ==.
func TestCanonMatchesEq(t *testing.T) {
	vals := []Value{
		None, Bool(false), Bool(true), Int(0), Int(1), Int(7),
		IP(7), IPv4(10, 0, 0, 1), Prefix(10<<24, 8), String("a"), String(""),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got := Canon(a) == Canon(b); got != Eq(a, b) {
				t.Fatalf("Canon(%v)==Canon(%v) is %v but Eq is %v", a, b, got, Eq(a, b))
			}
		}
	}
	// Canonical keys agree with the string Key encoding's collisions.
	for _, a := range vals {
		for _, b := range vals {
			if (a.Key() == b.Key()) != (Canon(a) == Canon(b)) {
				t.Fatalf("Key/Canon disagree for %v vs %v", a, b)
			}
		}
	}
}
