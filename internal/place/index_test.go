package place

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"snap/internal/topo"
	"snap/internal/traffic"
)

// TestSolveRejectsUnknownPort: a demand pair naming a port the topology
// lacks is an error that names the pair, from both engines and the
// automatic choice between them, for ST, TE and the warm start. Of two
// such pairs the error names the least.
func TestSolveRejectsUnknownPort(t *testing.T) {
	net, err := topo.NewCampus(1000)
	if err != nil {
		t.Fatal(err)
	}
	demands := traffic.Matrix{{98, 1}: 2, {1, 99}: 5, {1, 2}: 1}
	m := mapping(map[[2]int][]string{{1, 2}: {"a"}, {1, 99}: {"a"}})
	ord := orderFor([]string{"a"}, nil)
	fixed := map[string]topo.NodeID{"a": 0}
	for _, method := range []Method{Auto, Heuristic, Exact} {
		model := NewModel(net, demands, Options{Method: method})
		_, stErr := model.SolveST(m, ord)
		_, teErr := model.SolveTE(m, ord, fixed)
		_, warmErr := model.SolveSTWarm(m, ord, fixed, nil)
		for name, err := range map[string]error{"ST": stErr, "TE": teErr, "warm": warmErr} {
			if err == nil || !strings.Contains(err.Error(), "(1,99)") || !strings.Contains(err.Error(), "port 99") {
				t.Errorf("method %d %s: error %v, want one naming pair (1,99) and port 99", method, name, err)
			}
		}
	}
}

// TestPairListMatchesPairs: the solver's pair list is Matrix.Pairs(), in
// its order, each pair with its end switches, its demand and its waypoint
// sequence, on random matrices with explicit zero demands and self pairs,
// over a topology whose ports are not listed in id order and over a WAN.
func TestPairListMatchesPairs(t *testing.T) {
	scrambled := topo.MustNew("scrambled", 3, []topo.Link{
		{From: 0, To: 1, Capacity: 10}, {From: 1, To: 0, Capacity: 10},
		{From: 1, To: 2, Capacity: 10}, {From: 2, To: 1, Capacity: 10},
	}, []topo.Port{{ID: 3, Switch: 0}, {ID: 1, Switch: 1}, {ID: 2, Switch: 0}, {ID: 7, Switch: 2}})
	wan, err := topo.NewIGen(40, 1000)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for _, tp := range []*topo.Topology{scrambled, topo.Campus(1000), wan} {
		ids := tp.PortIDs()
		for trial := 0; trial < 20; trial++ {
			d := traffic.Matrix{}
			for _, u := range ids {
				for _, v := range ids {
					switch x := rng.Float64(); {
					case x < 0.2:
						d[[2]int{u, v}] = 0
					case x < 0.7:
						d[[2]int{u, v}] = rng.Float64() * 10
					}
				}
			}
			mp, ord := randomStateful(rng, tp, 4, 0.3)
			model := NewModel(tp, traffic.Gravity(tp, 10, 1), Options{Method: Heuristic}).Refresh(d)
			s := mustSolver(t, model, model.inputs(mp, ord))
			want := d.Pairs()
			if len(s.pairs) != len(want) {
				t.Fatalf("%s: %d pairs, want %d", tp.Name, len(s.pairs), len(want))
			}
			for i, p := range s.pairs {
				pu, _ := tp.PortByID(want[i][0])
				pv, _ := tp.PortByID(want[i][1])
				seq := mp.StateSeq(want[i][0], want[i][1], ord)
				if p.key != want[i] || p.su != pu.Switch || p.sv != pv.Switch ||
					math.Float64bits(p.demand) != math.Float64bits(d[want[i]]) || !slices.Equal(p.seq, seq) {
					t.Fatalf("%s: pair %d is %v %d→%d demand %v seq %v, want %v %d→%d demand %v seq %v", tp.Name, i,
						p.key, p.su, p.sv, p.demand, p.seq, want[i], pu.Switch, pv.Switch, d[want[i]], seq)
				}
			}
		}
	}
}

// TestRefreshMatchesNewModel: SolveTE on a refreshed model returns what it
// returns on a model built for the matrix from scratch, field for field
// and to the last bit of Congestion and MaxUtil, with capacities loose
// enough for no penalty round and tight enough for three. Solves running
// at once on models that share one index return the same as well.
func TestRefreshMatchesNewModel(t *testing.T) {
	for _, tc := range []struct {
		capacity float64
		rounds   int // routing rounds the reference takes: 1 + penalty rounds
	}{{1000, 1}, {0.05, 4}} {
		tp, err := topo.NewIGen(16, tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		mp, ord := randomStateful(rng, tp, 4, 0.3)
		fixed := randomPlacement(rng, tp, ord)
		base := NewModel(tp, traffic.Gravity(tp, 100, 1), Options{Method: Heuristic})
		for seed := int64(2); seed < 6; seed++ {
			d := traffic.Gravity(tp, 100, seed)
			cold, err := NewModel(tp, d, Options{Method: Heuristic}).SolveTE(mp, ord, fixed)
			if err != nil {
				t.Fatal(err)
			}
			refreshed := base.Refresh(d)
			got := make([]*Result, 3)
			errs := make([]error, len(got))
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = refreshed.SolveTE(mp, ord, fixed)
				}()
			}
			wg.Wait()
			for i, res := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				if !reflect.DeepEqual(res, cold) || math.Float64bits(res.Congestion) != math.Float64bits(cold.Congestion) ||
					math.Float64bits(res.MaxUtil) != math.Float64bits(cold.MaxUtil) {
					t.Fatalf("capacity %v seed %d: refreshed solve %d differs from a new model's: congestion %v/%v max util %v/%v",
						tc.capacity, seed, i, res.Congestion, cold.Congestion, res.MaxUtil, cold.MaxUtil)
				}
			}
			if rounds := checkAgainstReference(t, "refreshed", refreshed, mp, ord, got[0]); rounds != tc.rounds {
				t.Fatalf("capacity %v seed %d: %d routing rounds, want %d", tc.capacity, seed, rounds, tc.rounds)
			}
		}
	}
}
