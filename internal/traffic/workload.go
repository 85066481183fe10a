// Realistic workload generators beyond the gravity model: Zipf/hot-key
// matrices whose port popularity follows a power law (a handful of ports
// carry most of the demand, the shape measured traffic actually has), and
// recycled-flow-churn traces whose flow identities turn over continuously.
// Both exist to stress the parts of the data plane the smooth gravity
// model cannot: hot-key skew concentrates state writes on one owner switch
// (switch locks, replication rings), flow churn keeps inserting fresh
// state-table entries instead of re-touching warm ones.
package traffic

import (
	"math"
	"math/rand"
	"sort"

	"snap/internal/topo"
)

// Zipf synthesizes a hot-key matrix over the topology's external ports:
// ports are ranked by a seeded shuffle and port popularity decays as
// 1/rank^alpha, so demand concentrates on a few hot ports. alpha = 0
// degenerates to the uniform matrix; alpha around 1–1.5 matches the skew
// of measured flow-size distributions. The demands sum exactly to total
// (same normalization as Gravity) and the same seed always yields the same
// matrix.
func Zipf(t *topo.Topology, total, alpha float64, seed int64) Matrix {
	rng := rand.New(rand.NewSource(seed))
	ports := t.PortIDs()
	if len(ports) < 2 {
		return Matrix{}
	}
	order := append([]int(nil), ports...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	w := make(map[int]float64, len(ports))
	var sum, sq float64
	for rank, p := range order {
		x := 1.0 / math.Pow(float64(rank+1), alpha)
		w[p] = x
		sum += x
		sq += x * x
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

// Flow is one draw of a churn trace: a demand pair plus the flow identity
// the packet should carry (drives its host addresses and ports, hence its
// state keys).
type Flow struct {
	Pair [2]int
	ID   uint32
}

// ChurnReplay samples n demand-proportional pairs like Replay while
// recycling flow identities: exactly `active` flows are live at any
// moment, each draw picks one of them uniformly, and every `recycle` draws
// the oldest live flow retires for good and a brand-new identity is
// admitted. The resulting packet trace keeps creating state entries for
// identities the tables have never seen — the steady insert pressure and
// replication-ring churn that a fixed flow population (Replay with
// identities derived from the pair alone) never produces. active <= 0
// defaults to 64, recycle <= 0 to 16. The same seed always yields the same
// trace; a matrix with no positive demand returns nil.
func (m Matrix) ChurnReplay(n, active, recycle int, seed int64) []Flow {
	if n <= 0 {
		return nil
	}
	if active <= 0 {
		active = 64
	}
	if recycle <= 0 {
		recycle = 16
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
	// Ring of live flow identities; next is the next identity ever minted.
	ring := make([]uint32, active)
	next := uint32(1)
	for i := range ring {
		ring[i] = next
		next++
	}
	oldest := 0
	out := make([]Flow, n)
	for i := range out {
		x := rng.Float64() * total
		j := sort.SearchFloat64s(cum, x)
		if j >= len(pairs) {
			j = len(pairs) - 1
		}
		out[i] = Flow{Pair: pairs[j], ID: ring[rng.Intn(active)]}
		if (i+1)%recycle == 0 {
			ring[oldest] = next
			next++
			oldest = (oldest + 1) % active
		}
	}
	return out
}
