package topo

import (
	"slices"
	"testing"
)

// refTree is the per-source linear-scan Dijkstra the forest replaced in P4,
// kept as the reference Forest's rows must equal bit for bit.
func refTree(t *Topology, src NodeID, weight []float64) ([]float64, []int) {
	const inf = 1e30
	dist := make([]float64, t.Switches)
	prevLink := make([]int, t.Switches)
	visited := make([]bool, t.Switches)
	for i := range dist {
		dist[i] = inf
		prevLink[i] = -1
	}
	dist[src] = 0
	for {
		best, bestD := -1, inf
		for n := 0; n < t.Switches; n++ {
			if !visited[n] && dist[n] < bestD {
				best, bestD = n, dist[n]
			}
		}
		if best < 0 {
			return dist, prevLink
		}
		visited[best] = true
		for _, li := range t.out[best] {
			l := t.Links[li]
			if nd := bestD + weight[li]; nd < dist[l.To] {
				dist[l.To] = nd
				prevLink[l.To] = li
			}
		}
	}
}

// TestForestMatchesReference: on the campus, a 40-switch WAN and the campus
// with one switch down, every row of the forest under 1/capacity weights
// equals the reference tree from that source, and Next[s][d] is the first
// link of s's tree path to d: -1 at s itself and toward every switch the
// tree does not reach, the down one included.
func TestForestMatchesReference(t *testing.T) {
	campus := Campus(1000)
	degraded, err := campus.Degrade([]NodeID{4}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, net := range []*Topology{campus, IGen(40, 1000), degraded} {
		w := net.CapacityWeights()
		f := net.Forest(w)
		for s := 0; s < net.Switches; s++ {
			dist, prev := refTree(net, NodeID(s), w)
			if !slices.Equal(f.Dist[s], dist) || !slices.Equal(f.Prev[s], prev) {
				t.Fatalf("%s: the tree from %d differs from the reference", net.Name, s)
			}
			for d := 0; d < net.Switches; d++ {
				want := -1
				if k := net.TreeHops(prev, NodeID(d)); k > 0 {
					nodes, links := make([]NodeID, k), make([]int, k)
					net.TreePath(prev, NodeID(d), nodes, links)
					want = links[0]
				} else if d != s && dist[d] < unreachable {
					t.Fatalf("%s: %d reaches %d without a path", net.Name, s, d)
				}
				if got := f.Next[s][d]; got != want {
					t.Fatalf("%s: Next[%d][%d] = %d, want %d", net.Name, s, d, got, want)
				}
				if (!net.Up(NodeID(s)) || !net.Up(NodeID(d))) && s != d && f.Next[s][d] != -1 {
					t.Fatalf("%s: Next[%d][%d] = %d crosses a down switch", net.Name, s, d, f.Next[s][d])
				}
			}
		}
	}
}

// TestCapacityWeights: a link weighs 1/capacity, and 1 without capacity.
func TestCapacityWeights(t *testing.T) {
	net := MustNew("w", 2, []Link{{From: 0, To: 1, Capacity: 4}, {From: 1, To: 0}}, nil)
	if w := net.CapacityWeights(); !slices.Equal(w, []float64{0.25, 1}) {
		t.Fatalf("weights %v, want [0.25 1]", w)
	}
}
