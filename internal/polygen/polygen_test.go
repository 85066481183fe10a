package polygen_test

import (
	"errors"
	"math/rand"
	"testing"

	"snap/internal/core"
	"snap/internal/parser"
	"snap/internal/place"
	"snap/internal/polygen"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"
)

// TestSeedReproducesPolicies: the fuzz suites name a failing program by its
// seed, so one seed must yield one policy sequence; and what the generator
// emits must be a program of the language — its rendering parses back, and
// it compiles on the campus unless the translator rejects it statically.
func TestSeedReproducesPolicies(t *testing.T) {
	net := topo.Campus(1000)
	tm := traffic.Gravity(net, 100, 1)
	a, b := polygen.New(rand.New(rand.NewSource(7))), polygen.New(rand.New(rand.NewSource(7)))
	compiled := 0
	for i := 0; i < 40; i++ {
		p, q := syntax.Then(a.Spine(3, 2)...), syntax.Then(b.Spine(3, 2)...)
		if !syntax.Equal(p, q) {
			t.Fatalf("program %d: same seed, different policies\n%s\n%s", i, p, q)
		}
		if _, err := parser.Parse(p.String()); err != nil {
			t.Fatalf("program %d does not parse back: %v\n%s", i, err, p)
		}
		_, err := core.ColdStart(p, net, tm, place.Options{Method: place.Heuristic})
		var race *xfdd.RaceError
		var unsup *xfdd.UnsupportedError
		switch {
		case err == nil:
			compiled++
		case !errors.As(err, &race) && !errors.As(err, &unsup):
			t.Fatalf("program %d: %v\n%s", i, err, p)
		}
	}
	if compiled == 0 {
		t.Fatal("no generated program compiled")
	}
}
