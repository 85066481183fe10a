package values

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEqCoercion(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Bool(false), Int(0), true},
		{Bool(true), Int(1), true},
		{Bool(true), Int(2), false},
		{Int(5), Int(5), true},
		{Int(5), Int(6), false},
		{IP(5), Int(5), false}, // addresses never coerce to integers
		{String("x"), String("x"), true},
		{String("x"), String("y"), false},
		{None, None, true},
		{None, Bool(false), false}, // absent ≠ false at the value level
		{IPv4(10, 0, 0, 1), IP(10<<24 | 1), true},
		{Prefix(10<<24, 8), Prefix(10<<24, 8), true},
		{Prefix(10<<24, 8), Prefix(10<<24, 9), false},
	}
	for _, c := range cases {
		if got := Eq(c.a, c.b); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := Eq(c.b, c.a); got != c.want {
			t.Errorf("Eq(%v, %v) = %v, want %v (symmetry)", c.b, c.a, got, c.want)
		}
	}
}

// genValue draws from all kinds with small domains so collisions happen.
func genValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Bool(rng.Intn(2) == 0)
	case 1:
		return Int(int64(rng.Intn(4)))
	case 2:
		return IP(uint32(rng.Intn(4)))
	case 3:
		return Prefix(uint32(rng.Intn(4))<<24, uint8(8*(1+rng.Intn(3))))
	case 4:
		return String([]string{"a", "b"}[rng.Intn(2)])
	default:
		return None
	}
}

// TestKeyEqConsistency: Eq(a, b) ⇔ a.Key() == b.Key(). This is the
// property state-variable indexing depends on: compile-time equality
// reasoning, the evaluator and the switch tables all agree.
func TestKeyEqConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := genValue(rng), genValue(rng)
		if Eq(a, b) != (a.Key() == b.Key()) {
			t.Fatalf("Eq(%v,%v)=%v but keys %q vs %q", a, b, Eq(a, b), a.Key(), b.Key())
		}
	}
}

// TestHashEqConsistency: Eq-equal values hash alike, and a prefix built
// around an address it contains hashes like that prefix.
func TestHashEqConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		a, b := genValue(rng), genValue(rng)
		if Eq(a, b) && a.Hash() != b.Hash() {
			t.Fatalf("Eq(%v,%v) but hashes %x vs %x", a, b, a.Hash(), b.Hash())
		}
	}
	if Bool(true).Hash() != Int(1).Hash() || Bool(false).Hash() != Int(0).Hash() {
		t.Fatal("booleans hash unlike their integer coercion")
	}
	p := Prefix(10<<24|6<<8, 24)
	if Prefix(10<<24|6<<8|77, 24).Hash() != p.Hash() {
		t.Fatal("a prefix around a contained address hashes unlike the prefix")
	}
	if p.Hash() == Prefix(10<<24|7<<8, 24).Hash() || p.Hash() == Prefix(10<<24|6<<8, 23).Hash() {
		t.Fatal("distinct prefixes collide")
	}
}

func TestPrefixMatch(t *testing.T) {
	p := Prefix(10<<24|6<<8, 24) // 10.0.6.0/24
	cases := []struct {
		v    Value
		want bool
	}{
		{IPv4(10, 0, 6, 1), true},
		{IPv4(10, 0, 6, 255), true},
		{IPv4(10, 0, 7, 1), false},
		{IPv4(11, 0, 6, 1), false},
		{Int(42), false},
		{p, true}, // a prefix literal matches itself
	}
	for _, c := range cases {
		if got := p.Matches(c.v); got != c.want {
			t.Errorf("%v.Matches(%v) = %v, want %v", p, c.v, got, c.want)
		}
	}
}

// genExact draws packet-field values: fields always hold exact values
// (the parser rejects prefix assignments).
func genExact(rng *rand.Rand) Value {
	for {
		v := genValue(rng)
		if v.Kind != KindPrefix {
			return v
		}
	}
}

// TestSubsumesSoundness: if v.Subsumes(w), every exact packet value
// matching w matches v.
func TestSubsumesSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		v, w := genValue(rng), genValue(rng)
		if !v.Subsumes(w) {
			continue
		}
		for j := 0; j < 20; j++ {
			x := genExact(rng)
			if w.Matches(x) && !v.Matches(x) {
				t.Fatalf("%v subsumes %v but %v matches only the narrower", v, w, x)
			}
		}
	}
}

// TestDisjointSoundness: if Disjoint(v, w), no exact value matches both.
func TestDisjointSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		v, w := genValue(rng), genValue(rng)
		if !Disjoint(v, w) {
			continue
		}
		for j := 0; j < 20; j++ {
			x := genExact(rng)
			if v.Matches(x) && w.Matches(x) {
				t.Fatalf("Disjoint(%v, %v) but both match %v", v, w, x)
			}
		}
	}
}

func TestPrefixSubsumption(t *testing.T) {
	wide := Prefix(10<<24, 8)         // 10.0.0.0/8
	narrow := Prefix(10<<24|6<<8, 24) // 10.0.6.0/24
	other := Prefix(11<<24, 8)        // 11.0.0.0/8
	if !wide.Subsumes(narrow) {
		t.Error("/8 must subsume /24 inside it")
	}
	if narrow.Subsumes(wide) {
		t.Error("/24 must not subsume its /8")
	}
	if !Disjoint(narrow, other) || !Disjoint(other, narrow) {
		t.Error("10.0.6.0/24 and 11.0.0.0/8 must be disjoint")
	}
	if Disjoint(wide, narrow) {
		t.Error("nested prefixes are not disjoint")
	}
}

func TestParseIPv4(t *testing.T) {
	good := map[string]uint32{
		"0.0.0.0":         0,
		"255.255.255.255": ^uint32(0),
		"10.0.6.1":        10<<24 | 6<<8 | 1,
		"192.168.1.2":     192<<24 | 168<<16 | 1<<8 | 2,
	}
	for s, want := range good {
		got, ok := ParseIPv4(s)
		if !ok || got != want {
			t.Errorf("ParseIPv4(%q) = (%d, %v), want %d", s, got, ok, want)
		}
	}
	bad := []string{"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "1..2.3", "a.b.c.d", "1.2.3.", "1234.1.1.1"}
	for _, s := range bad {
		if _, ok := ParseIPv4(s); ok {
			t.Errorf("ParseIPv4(%q) unexpectedly succeeded", s)
		}
	}
}

// TestParseFormatRoundTrip uses testing/quick: formatting then parsing an
// address is the identity.
func TestParseFormatRoundTrip(t *testing.T) {
	f := func(addr uint32) bool {
		got, ok := ParseIPv4(FormatIP(addr))
		return ok && got == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestTupleKey(t *testing.T) {
	a := Tuple{IPv4(1, 2, 3, 4), Int(5)}
	b := Tuple{IPv4(1, 2, 3, 4), Int(5)}
	c := Tuple{Int(5), IPv4(1, 2, 3, 4)}
	if a.Key() != b.Key() {
		t.Error("equal tuples must share a key")
	}
	if a.Key() == c.Key() {
		t.Error("order matters in tuple keys")
	}
	// Nested flattening never merges components ambiguously: (x)(yz) vs
	// (xy)(z) — the component count is fixed per variable, so keys of
	// equal-length tuples with different contents must differ.
	d := Tuple{String("ab"), String("c")}
	e := Tuple{String("a"), String("bc")}
	if d.Key() == e.Key() {
		t.Error("tuple keys must not concatenate ambiguously")
	}
	// Strings containing the separator cannot forge component boundaries.
	f := Tuple{String(`a|s:"b"`)}
	g := Tuple{String("a"), String("b")}
	if f.Key() == g.Key() {
		t.Error("separator inside a string collided with a 2-tuple")
	}
}

func TestAsInt(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
	}{
		{Bool(false), 0}, {Bool(true), 1}, {Int(-3), -3}, {None, 0},
		{String("7"), 0}, {IPv4(1, 1, 1, 1), 0},
	}
	for _, c := range cases {
		if got := c.v.AsInt(); got != c.want {
			t.Errorf("AsInt(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestStringRendering(t *testing.T) {
	cases := map[string]Value{
		"True":        Bool(true),
		"False":       Bool(false),
		"42":          Int(42),
		"10.0.6.0/24": Prefix(10<<24|6<<8, 24),
		"10.0.6.1":    IPv4(10, 0, 6, 1),
		`"x"`:         String("x"),
		"none":        None,
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}
