package place

import (
	"fmt"
	"math"
	"sort"

	"snap/internal/lp"
	"snap/internal/milp"
	"snap/internal/topo"
)

// solveExact encodes the paper's Table 2 MILP verbatim and solves it with
// the branch-and-bound engine. OBS ports become dedicated graph nodes
// attached to their switch (the paper's "edge nodes"), so states may be
// placed on any switch including a flow's first or last hop.
//
// Variables (Table 1): R_uvij (flow fraction per pair per link), P_sn
// (binary placement), P^s_uvij (fraction of uv's flow on ij that already
// passed s). With fixed non-nil (the TE scenario) the P_sn become constants
// and only routing is decided.
func solveExact(in Inputs, fixed map[string]topo.NodeID, opts Options) (*Result, error) {
	t := in.Topo
	S := t.Switches

	// Augmented link set: topology links first, then port attachment links.
	type alink struct {
		from, to int // augmented node ids: 0..S-1 switches, S+i port i
		cap      float64
		topoIdx  int // -1 for port links
	}
	var links []alink
	for i, l := range t.Links {
		links = append(links, alink{int(l.From), int(l.To), l.Capacity, i})
	}
	portNode := map[int]int{}
	ports := t.PortIDs()
	for i, pid := range ports {
		p, _ := t.PortByID(pid)
		node := S + i
		portNode[pid] = node
		links = append(links, alink{node, int(p.Switch), math.Inf(1), -1})
		links = append(links, alink{int(p.Switch), node, math.Inf(1), -1})
	}
	numNodes := S + len(ports)

	in2 := make([][]int, numNodes)  // incoming link ids per node
	out2 := make([][]int, numNodes) // outgoing link ids per node
	for li, l := range links {
		out2[l.from] = append(out2[l.from], li)
		in2[l.to] = append(in2[l.to], li)
	}

	pairs := in.Demands.Pairs()
	for _, pr := range pairs {
		for _, id := range pr {
			if _, ok := portNode[id]; !ok {
				return nil, unknownPort(t, pr, id)
			}
		}
	}
	m := milp.NewModel()

	// Placement variables.
	vars := make([]string, 0, len(in.Order.Pos))
	for s := range in.Order.Pos {
		vars = append(vars, s)
	}
	sort.Strings(vars)
	pCol := map[string][]int{} // var → per-switch column (nil when fixed)
	pVal := func(s string, n int) (col int, konst float64) {
		if fixed != nil {
			if int(fixed[s]) == n {
				return -1, 1
			}
			return -1, 0
		}
		return pCol[s][n], 0
	}
	if fixed == nil {
		for _, s := range vars {
			cols := make([]int, S)
			for n := 0; n < S; n++ {
				cols[n] = m.AddBinary(fmt.Sprintf("P[%s][%d]", s, n), 0)
			}
			pCol[s] = cols
			terms := make([]lp.Term, S)
			for n := 0; n < S; n++ {
				terms[n] = lp.Term{Col: cols[n], Coeff: 1}
			}
			m.AddRow(terms, lp.EQ, 1) // Σ_n P_sn = 1
		}
		// tied: co-location.
		for _, tie := range in.Order.Tied {
			for n := 0; n < S; n++ {
				m.AddRow([]lp.Term{
					{Col: pCol[tie[0]][n], Coeff: 1},
					{Col: pCol[tie[1]][n], Coeff: -1},
				}, lp.EQ, 0)
			}
		}
	}

	// Routing variables R_uv,l with the utilization-sum objective.
	rCol := make([]map[int]int, len(pairs)) // pair idx → link → column
	for pi, pr := range pairs {
		d := in.Demands[pr]
		cols := make(map[int]int, len(links))
		for li, l := range links {
			obj := 0.0
			if l.topoIdx >= 0 && l.cap > 0 {
				obj = d / l.cap
			}
			cols[li] = m.AddCol(fmt.Sprintf("R[%d-%d][%d]", pr[0], pr[1], li), obj, 1)
		}
		rCol[pi] = cols
	}

	// Per-pair routing constraints.
	for pi, pr := range pairs {
		su, sv := portNode[pr[0]], portNode[pr[1]]
		cols := rCol[pi]
		sum := func(ids []int) []lp.Term {
			ts := make([]lp.Term, 0, len(ids))
			for _, li := range ids {
				ts = append(ts, lp.Term{Col: cols[li], Coeff: 1})
			}
			return ts
		}
		m.AddRow(sum(out2[su]), lp.EQ, 1) // leaves the source port
		m.AddRow(sum(in2[sv]), lp.EQ, 1)  // arrives at the sink port
		if len(in2[su]) > 0 {
			m.AddRow(sum(in2[su]), lp.EQ, 0)
		}
		if len(out2[sv]) > 0 {
			m.AddRow(sum(out2[sv]), lp.EQ, 0)
		}
		for n := 0; n < numNodes; n++ {
			if n == su || n == sv {
				continue
			}
			// Conservation: Σ_in = Σ_out.
			ts := make([]lp.Term, 0, len(in2[n])+len(out2[n]))
			for _, li := range in2[n] {
				ts = append(ts, lp.Term{Col: cols[li], Coeff: 1})
			}
			for _, li := range out2[n] {
				ts = append(ts, lp.Term{Col: cols[li], Coeff: -1})
			}
			if len(ts) > 0 {
				m.AddRow(ts, lp.EQ, 0)
			}
			// No revisits: Σ_in ≤ 1.
			if len(in2[n]) > 1 {
				m.AddRow(sum(in2[n]), lp.LE, 1)
			}
		}
	}

	// Link capacities across pairs (topology links only).
	for li, l := range links {
		if l.topoIdx < 0 || math.IsInf(l.cap, 1) {
			continue
		}
		var ts []lp.Term
		for pi, pr := range pairs {
			ts = append(ts, lp.Term{Col: rCol[pi][li], Coeff: in.Demands[pr]})
		}
		m.AddRow(ts, lp.LE, l.cap)
	}

	// State constraints per pair.
	type psKey struct {
		pair int
		s    string
	}
	psCols := map[psKey]map[int]int{}
	for pi, pr := range pairs {
		need := in.Mapping.Vars[pr]
		if len(need) == 0 {
			continue
		}
		seq := in.Mapping.StateSeq(pr[0], pr[1], in.Order)
		su, sv := portNode[pr[0]], portNode[pr[1]]
		cols := rCol[pi]

		for _, s := range seq {
			// Flow must pass the switch holding s: Σ_i R_uv,in ≥ P_sn.
			for n := 0; n < S; n++ {
				col, konst := pVal(s, n)
				ts := make([]lp.Term, 0, len(in2[n])+1)
				for _, li := range in2[n] {
					ts = append(ts, lp.Term{Col: cols[li], Coeff: 1})
				}
				if col >= 0 {
					ts = append(ts, lp.Term{Col: col, Coeff: -1})
					m.AddRow(ts, lp.GE, 0)
				} else if konst > 0 {
					m.AddRow(ts, lp.GE, konst)
				}
			}

			// Passed-flow variables P^s_uvij.
			pcols := make(map[int]int, len(links))
			for li := range links {
				pcols[li] = m.AddCol(fmt.Sprintf("PS[%s][%d-%d][%d]", s, pr[0], pr[1], li), 0, 1)
				// P^s ≤ R.
				m.AddRow([]lp.Term{{Col: pcols[li], Coeff: 1}, {Col: cols[li], Coeff: -1}}, lp.LE, 0)
			}
			psCols[psKey{pi, s}] = pcols

			// Conservation of passed flow: Σ_out - Σ_in = P_sn at switches,
			// 0 at port nodes other than the endpoints.
			for n := 0; n < numNodes; n++ {
				if n == su || n == sv {
					continue
				}
				ts := make([]lp.Term, 0, len(in2[n])+len(out2[n])+1)
				for _, li := range out2[n] {
					ts = append(ts, lp.Term{Col: pcols[li], Coeff: 1})
				}
				for _, li := range in2[n] {
					ts = append(ts, lp.Term{Col: pcols[li], Coeff: -1})
				}
				rhs := 0.0
				if n < S {
					col, konst := pVal(s, n)
					if col >= 0 {
						ts = append(ts, lp.Term{Col: col, Coeff: -1})
					} else {
						rhs = konst
					}
				}
				if len(ts) > 0 {
					m.AddRow(ts, lp.EQ, rhs)
				}
			}
			// Nothing has passed s when leaving the source port.
			src := make([]lp.Term, 0, len(out2[su]))
			for _, li := range out2[su] {
				src = append(src, lp.Term{Col: pcols[li], Coeff: 1})
			}
			m.AddRow(src, lp.EQ, 0)
			// Everything has passed s on arrival: Σ_i P^s_uv,i,sv = 1.
			snk := make([]lp.Term, 0, len(in2[sv]))
			for _, li := range in2[sv] {
				snk = append(snk, lp.Term{Col: pcols[li], Coeff: 1})
			}
			m.AddRow(snk, lp.EQ, 1)
		}

		// Ordering: for (s, t) ∈ dep with both needed by uv, at every
		// switch n: P_tn ≤ P_sn + Σ_i P^s_uv,in.
		for _, dp := range in.Order.Dep {
			s, tt := dp[0], dp[1]
			if !need[s] || !need[tt] {
				continue
			}
			pcols := psCols[psKey{pi, s}]
			for n := 0; n < S; n++ {
				sCol, sK := pVal(s, n)
				tCol, tK := pVal(tt, n)
				ts := make([]lp.Term, 0, len(in2[n])+2)
				rhs := 0.0
				if tCol >= 0 {
					ts = append(ts, lp.Term{Col: tCol, Coeff: 1})
				} else {
					rhs -= tK
				}
				if sCol >= 0 {
					ts = append(ts, lp.Term{Col: sCol, Coeff: -1})
				} else {
					rhs += sK
				}
				for _, li := range in2[n] {
					ts = append(ts, lp.Term{Col: pcols[li], Coeff: -1})
				}
				if len(ts) > 0 {
					m.AddRow(ts, lp.LE, rhs)
				}
			}
		}
	}

	if debugModelHook != nil {
		debugModelHook(m)
	}
	sol, err := milp.Solve(m, milp.Options{MaxNodes: opts.MILPMaxNodes})
	if err != nil {
		return nil, fmt.Errorf("place: exact solve: %w", err)
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("place: exact solve: %s", sol.Status)
	}

	// Extract placement.
	placement := map[string]topo.NodeID{}
	if fixed != nil {
		for s, n := range fixed {
			placement[s] = n
		}
	} else {
		for _, s := range vars {
			for n := 0; n < S; n++ {
				if sol.X[pCol[s][n]] > 0.5 {
					placement[s] = topo.NodeID(n)
					break
				}
			}
		}
	}

	// Extract one path per pair by greedy max-fraction walk.
	routes := map[[2]int]Route{}
	for pi, pr := range pairs {
		su, sv := portNode[pr[0]], portNode[pr[1]]
		cols := rCol[pi]
		cur := su
		var nodes []topo.NodeID
		var linkSeq []int
		visited := map[int]bool{}
		for cur != sv && !visited[cur] {
			visited[cur] = true
			bestLi, bestV := -1, 1e-6
			for _, li := range out2[cur] {
				if v := sol.X[cols[li]]; v > bestV {
					bestV, bestLi = v, li
				}
			}
			if bestLi < 0 {
				break
			}
			l := links[bestLi]
			if l.topoIdx >= 0 {
				if len(nodes) == 0 {
					nodes = append(nodes, topo.NodeID(l.from))
				}
				nodes = append(nodes, topo.NodeID(l.to))
				linkSeq = append(linkSeq, l.topoIdx)
			} else if len(nodes) == 0 && l.to < S {
				nodes = append(nodes, topo.NodeID(l.to))
			}
			cur = l.to
		}
		routes[pr] = Route{
			Nodes:     nodes,
			Links:     linkSeq,
			Waypoints: in.Mapping.StateSeq(pr[0], pr[1], in.Order),
		}
	}

	// Congestion from the fractional solution (the true LP objective).
	congestion, maxUtil := 0.0, 0.0
	for li, l := range links {
		if l.topoIdx < 0 || l.cap <= 0 || math.IsInf(l.cap, 1) {
			continue
		}
		load := 0.0
		for pi, pr := range pairs {
			load += in.Demands[pr] * sol.X[rCol[pi][li]]
		}
		u := load / l.cap
		congestion += u
		if u > maxUtil {
			maxUtil = u
		}
	}

	method := "milp-st"
	if fixed != nil {
		method = "milp-te"
	}
	return &Result{
		Placement:  placement,
		Routes:     routes,
		Congestion: congestion,
		MaxUtil:    maxUtil,
		Method:     method,
	}, nil
}

// debugModelHook lets tests inspect the constructed model.
var debugModelHook func(*milp.Model)
