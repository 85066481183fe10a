package traffic

import (
	"math"
	"testing"

	"snap/internal/topo"
)

func TestGravityTotalAndDeterminism(t *testing.T) {
	net := topo.Campus(100)
	m1 := Gravity(net, 250, 7)
	m2 := Gravity(net, 250, 7)
	if math.Abs(m1.Total()-250) > 1e-6 {
		t.Fatalf("total = %f, want 250", m1.Total())
	}
	if len(m1) != 30 { // 6 ports → 30 ordered pairs
		t.Fatalf("pairs = %d, want 30", len(m1))
	}
	for k, v := range m1 {
		if v <= 0 {
			t.Fatalf("non-positive demand on %v", k)
		}
		if m2[k] != v {
			t.Fatalf("determinism: %v differs", k)
		}
	}
	m3 := Gravity(net, 250, 8)
	same := true
	for k, v := range m1 {
		if m3[k] != v {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds must give different matrices")
	}
}

// TestGravityBitDeterministic: the same seed yields the same matrix to
// the last bit, call after call — placement and routing break ties on
// these demands, so a drifting last place could flip a decision.
func TestGravityBitDeterministic(t *testing.T) {
	net := topo.IGen(120, 1000)
	first := Gravity(net, 1000, 1)
	for call := 1; call < 20; call++ {
		m := Gravity(net, 1000, 1)
		for k, v := range first {
			if math.Float64bits(m[k]) != math.Float64bits(v) {
				t.Fatalf("call %d: demand %v is %b, first call gave %b", call, k, m[k], v)
			}
		}
	}
}

// TestGravityRankOne: gravity matrices satisfy d(u,v)·d(v,u) symmetry of
// weights — d(u,v)/d(u,w) is independent of u (rank-1 structure).
func TestGravityRankOne(t *testing.T) {
	net := topo.Campus(100)
	m := Gravity(net, 100, 3)
	ports := net.PortIDs()
	u1, u2 := ports[0], ports[1]
	v1, v2 := ports[2], ports[3]
	r1 := m[[2]int{u1, v1}] / m[[2]int{u1, v2}]
	r2 := m[[2]int{u2, v1}] / m[[2]int{u2, v2}]
	if math.Abs(r1-r2) > 1e-9*math.Abs(r1) {
		t.Fatalf("rank-1 violated: %f vs %f", r1, r2)
	}
}

func TestUniform(t *testing.T) {
	net := topo.Campus(100)
	m := Uniform(net, 2)
	if len(m) != 30 {
		t.Fatalf("pairs = %d", len(m))
	}
	for k, v := range m {
		if v != 2 {
			t.Fatalf("demand %v on %v", v, k)
		}
		if k[0] == k[1] {
			t.Fatalf("self pair %v", k)
		}
	}
}

func TestPairsSortedAndScale(t *testing.T) {
	net := topo.Campus(100)
	m := Gravity(net, 100, 1)
	ps := m.Pairs()
	for i := 1; i < len(ps); i++ {
		if ps[i-1][0] > ps[i][0] || (ps[i-1][0] == ps[i][0] && ps[i-1][1] >= ps[i][1]) {
			t.Fatalf("unsorted pairs at %d: %v", i, ps[i-1:i+1])
		}
	}
	s := m.Scale(2)
	if math.Abs(s.Total()-2*m.Total()) > 1e-9 {
		t.Fatal("scale must double the total")
	}
}

func TestDegenerateTopologies(t *testing.T) {
	one := topo.MustNew("one", 1, nil, []topo.Port{{ID: 1, Switch: 0}})
	if m := Gravity(one, 10, 1); len(m) != 0 {
		t.Fatalf("single-port matrix must be empty: %v", m)
	}
}

// TestReplayZeroTotal: a matrix with no positive demand has nothing to
// sample. The old code fabricated a full trace of pairs[0] (every draw of
// rng.Float64()*0 == 0 landed on the first cumulative slot).
func TestReplayZeroTotal(t *testing.T) {
	net := topo.Campus(100)
	if tr := Gravity(net, 100, 1).Scale(0).Replay(50, 3); tr != nil {
		t.Fatalf("all-zero matrix produced a %d-packet trace", len(tr))
	}
	if tr := (Matrix{}).Replay(50, 3); tr != nil {
		t.Fatalf("empty matrix produced a %d-packet trace", len(tr))
	}
	if tr := (Matrix{{1, 2}: 0, {2, 1}: 0}).Replay(50, 3); tr != nil {
		t.Fatalf("explicit-zero matrix produced a %d-packet trace", len(tr))
	}
}

// TestReplaySkipsZeroDemandPairs: explicit zero-demand pairs carry no
// probability mass and must never appear in a trace — in particular not
// through boundary draws that land exactly on a repeated cumulative value
// (a zero-demand pair sorted first is hit whenever the draw is exactly 0).
func TestReplaySkipsZeroDemandPairs(t *testing.T) {
	m := Matrix{{1, 2}: 0, {2, 3}: 1, {3, 4}: 0, {4, 5}: 2}
	for seed := int64(0); seed < 20; seed++ {
		for _, p := range m.Replay(500, seed) {
			if m[p] == 0 {
				t.Fatalf("seed %d: sampled zero-demand pair %v", seed, p)
			}
		}
	}
}

// TestDivergence: total-variation distance of the normalized demand
// distributions — volume-invariant, 0 for identical shapes, 1 for
// disjoint supports, symmetric.
func TestDivergence(t *testing.T) {
	a := Matrix{{1, 2}: 30, {2, 1}: 70}
	if d := Divergence(a, a.Scale(42)); d != 0 {
		t.Fatalf("scaled copy diverges by %v, want 0", d)
	}
	if d := Divergence(a, Matrix{{5, 6}: 1}); d != 1 {
		t.Fatalf("disjoint supports diverge by %v, want 1", d)
	}
	b := Matrix{{1, 2}: 70, {2, 1}: 30}
	d1, d2 := Divergence(a, b), Divergence(b, a)
	if math.Abs(d1-0.4) > 1e-12 || d1 != d2 {
		t.Fatalf("Divergence(a,b)=%v Divergence(b,a)=%v, want 0.4 both", d1, d2)
	}
	if d := Divergence(Matrix{}, Matrix{}); d != 0 {
		t.Fatalf("two empty matrices diverge by %v", d)
	}
	if d := Divergence(Matrix{}, a); d != 1 {
		t.Fatalf("empty vs loaded diverge by %v, want 1", d)
	}
}
