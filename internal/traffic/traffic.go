// Package traffic synthesizes traffic matrices over a topology's external
// ports with the gravity model of Roughan [31], as used by the paper's
// evaluation (§6.2: "Traffic matrices are synthesized using a gravity
// model"). Each port u draws an exponential weight w_u; the demand between
// ports u and v is Total·w_u·w_v / (Σw)², giving the heavy-tailed,
// rank-1 structure typical of measured matrices.
package traffic

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"

	"snap/internal/topo"
)

// Matrix maps ordered OBS port pairs (u, v), u ≠ v, to demand volume.
type Matrix map[[2]int]float64

// Gravity synthesizes a matrix over the topology's ports. total is the sum
// of all demands; the same seed always yields the same matrix.
func Gravity(t *topo.Topology, total float64, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	ports := t.PortIDs()
	if len(ports) < 2 {
		return Matrix{}
	}
	w := make(map[int]float64, len(ports))
	var sum float64
	for _, p := range ports {
		// Exponential weights: -ln U.
		x := -math.Log(1 - rng.Float64())
		w[p] = x
		sum += x
	}
	// Σ_u Σ_{v≠u} w_u w_v = sum² - Σ w_u²; normalize so demands add to total.
	// Summed in port order, so the same seed gives the same bits.
	var sq float64
	for _, p := range ports {
		sq += w[p] * w[p]
	}
	norm := sum*sum - sq
	if norm <= 0 {
		norm = 1
	}
	m := make(Matrix, len(ports)*(len(ports)-1))
	for _, u := range ports {
		for _, v := range ports {
			if u != v {
				m[[2]int{u, v}] = total * w[u] * w[v] / norm
			}
		}
	}
	return m
}

// Uniform builds a matrix with identical demand on every ordered pair.
func Uniform(t *topo.Topology, perPair float64) Matrix {
	ports := t.PortIDs()
	m := make(Matrix, len(ports)*(len(ports)-1))
	for _, u := range ports {
		for _, v := range ports {
			if u != v {
				m[[2]int{u, v}] = perPair
			}
		}
	}
	return m
}

// Total returns the sum of all demands.
func (m Matrix) Total() float64 {
	var s float64
	for _, d := range m {
		s += d
	}
	return s
}

// Pairs returns every ordered pair present in the matrix (including
// explicit zero-demand entries), sorted for deterministic iteration.
func (m Matrix) Pairs() [][2]int {
	out := make([][2]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, ComparePairs)
	return out
}

// ComparePairs orders port pairs as Pairs returns them: by ingress port,
// then by egress port.
func ComparePairs(a, b [2]int) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

// Replay samples n ordered port pairs from the matrix, each drawn with
// probability proportional to its demand — a packet-level trace whose
// empirical distribution converges to the matrix. The same seed always
// yields the same trace, so load tests and benchmarks are repeatable.
// Pairs with zero (or negative) demand never appear in the trace: they
// carry no probability mass, and keeping them in the cumulative table
// would let boundary draws (rng.Float64() returning exactly a repeated
// cumulative value, e.g. 0) select them anyway. A matrix with no positive
// demand has nothing to sample and returns nil.
func (m Matrix) Replay(n int, seed int64) [][2]int {
	if n <= 0 {
		return nil
	}
	pairs := make([][2]int, 0, len(m))
	cum := make([]float64, 0, len(m))
	var total float64
	for _, p := range m.Pairs() {
		if d := m[p]; d > 0 {
			total += d
			pairs = append(pairs, p)
			cum = append(cum, total)
		}
	}
	if len(pairs) == 0 || total <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([][2]int, n)
	for i := range out {
		x := rng.Float64() * total
		j := sort.SearchFloat64s(cum, x)
		if j >= len(pairs) {
			j = len(pairs) - 1
		}
		out[i] = pairs[j]
	}
	return out
}

// Divergence is the total-variation distance between the demand
// distributions of two matrices: both are normalized to sum 1 and the
// result is half the L1 difference, in [0, 1]. Absolute volume cancels
// out, so an empirical packet-count matrix (Engine.ObservedMatrix)
// compares directly against the volume-scaled matrix a deployment was
// optimized for — the drift signal ctrl.Monitor thresholds. Two empty (or
// all-zero) matrices are identical (0); one empty versus one loaded is
// maximal drift (1). Its sums run in map order, so two calls on the same
// matrices may differ in the last bit: it is only ever compared with a
// threshold, never fed to the optimizer.
func Divergence(a, b Matrix) float64 {
	ta, tb := a.Total(), b.Total()
	if ta <= 0 && tb <= 0 {
		return 0
	}
	if ta <= 0 || tb <= 0 {
		return 1
	}
	var d float64
	for k, av := range a {
		d += math.Abs(av/ta - b[k]/tb)
	}
	for k, bv := range b {
		if _, ok := a[k]; !ok {
			d += bv / tb
		}
	}
	return d / 2
}

// Restrict returns a copy of m keeping only pairs whose both ports exist
// in t — the demand that survives a topology degradation. Demands whose
// ingress or egress port died with its switch carry no routable traffic
// and would otherwise make the optimizer fail on unreachable endpoints.
func (m Matrix) Restrict(t *topo.Topology) Matrix {
	out := make(Matrix, len(m))
	for k, v := range m {
		if _, ok := t.PortByID(k[0]); !ok {
			continue
		}
		if _, ok := t.PortByID(k[1]); !ok {
			continue
		}
		out[k] = v
	}
	return out
}

// Scale returns a copy of m with every demand multiplied by f.
func (m Matrix) Scale(f float64) Matrix {
	out := make(Matrix, len(m))
	for k, v := range m {
		out[k] = v * f
	}
	return out
}
