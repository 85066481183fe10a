package dataplane

import (
	"sync"
	"sync/atomic"
)

// Stats is a point-in-time snapshot of data-plane activity, common to the
// sequential Network and the concurrent Engine. Injected counts at
// admission and the blocked-lock and containment counters at their event;
// the walk counts the rest in the walking goroutine's own memory (tally)
// and publishes it once per run of packets (fabric.fold), after a
// Network.Inject or an engine run ends, however it ends. So every counter
// is exact at quiescence, and a snapshot taken while traffic is in flight
// lags by at most the runs in flight: each counter is read atomically, but
// counters may be mid-update relative to each other.
type Stats struct {
	Injected  int64                 // packets entered at OBS ingress ports
	Delivered int64                 // copies that exited at an OBS egress port
	Dropped   int64                 // copies discarded, for any reason
	Drops     [numDropReasons]int64 // Dropped by DropReason; they sum to it
	Hops      int64                 // inter-switch forwarding steps
	Suspends  int64                 // evaluations suspended for remote state

	// Lock contention: visits whose switch-lock acquisition blocked, and the
	// cumulative nanoseconds they waited. Per-variable attribution is
	// available from Engine.LockContention.
	LockSuspends int64
	LockWaitNs   int64

	// Failure containment (containment.go). Rollbacks counts
	// reconfigurations that failed mid-swap and rolled back to the prior
	// plane. ContainedPanics counts panics recovered at the containment
	// sites (switch VMs and the mirror drainer). QuarantineDrops counts
	// copies discarded at panic-quarantined switches (Drops[DropQuarantine]).
	Rollbacks       int64
	ContainedPanics int64
	QuarantineDrops int64
}

// DropReason says why the plane discarded a packet copy.
type DropReason uint8

const (
	DropPolicy     DropReason = iota // the program dropped it
	DropNoEgress                     // its outport is not an OBS port
	DropDownSwitch                   // it reached a failed switch
	DropDeadLink                     // its next hop crosses a failed link
	DropQuarantine                   // it reached a panic-quarantined switch
	numDropReasons
)

// dropOutcomes: a drop's trace-hop outcome; past the colon, its metric label.
var dropOutcomes = [numDropReasons]string{"drop:policy", "drop:no_egress", "drop:down_switch", "drop:dead_link", "drop:quarantine"}

// counters is the published, atomically-updated form of Stats. injected is
// written once per admitted run and the rest once per run at fold, so no
// counter here is written per hop.
type counters struct {
	injected        atomic.Int64
	delivered       atomic.Int64
	dropped         atomic.Int64
	drops           [numDropReasons]atomic.Int64
	hops            atomic.Int64
	suspends        atomic.Int64
	lockSuspends    atomic.Int64
	lockWaitNs      atomic.Int64
	rollbacks       atomic.Int64
	containedPanics atomic.Int64
}

func (c *counters) snapshot() Stats {
	var drops [numDropReasons]int64
	for i := range drops {
		drops[i] = c.drops[i].Load()
	}
	return Stats{
		Drops:           drops,
		Injected:        c.injected.Load(),
		Delivered:       c.delivered.Load(),
		Dropped:         c.dropped.Load(),
		Hops:            c.hops.Load(),
		Suspends:        c.suspends.Load(),
		LockSuspends:    c.lockSuspends.Load(),
		LockWaitNs:      c.lockWaitNs.Load(),
		Rollbacks:       c.rollbacks.Load(),
		ContainedPanics: c.containedPanics.Load(),
		QuarantineDrops: drops[DropQuarantine],
	}
}

// SwitchLoad is the per-switch share of the engine's work, for load
// reporting: how many packet copies reached the switch and were served,
// for how many of those its VM ran (a copy in transit runs no program), how
// many suspended for remote state, and how many it sent onward. Each walker
// keeps its own per switch (walker.load), and Engine.Load sums them while
// the engine is quiescent.
type SwitchLoad struct {
	Processed int64
	Ran       int64
	Suspends  int64
	Forwarded int64
}

// tally is what a walker counts over one run, in its own memory, until
// fabric.fold publishes it: the walk's path pays plain adds and shares no
// cache line with another walker. It is empty between runs.
type tally struct {
	delivered, dropped int64
	drops              [numDropReasons]int64
	hops, suspends     int64

	// cells lists the run's deliveries and drops by (ingress, egress)
	// pair, one entry a copy: appending is all the walk pays, and the run's
	// footprint is its copies, not the ports squared.
	cells []cell
}

// cell is one delivered or dropped copy's observed-matrix entry.
type cell struct {
	in, out int
	drop    bool
}

// fold publishes a walker's tally of one run into the shared counters and
// the observed matrix, and empties it: one atomic add per non-zero counter
// and one lock of the matrix per run. Every exit of a run folds
// (Engine.walkRun after its guard, Network.Inject after its walk), so a
// panic, a rejected port or a poisoned engine still publishes what the run
// counted.
func (f *fabric) fold(t *tally) {
	addNonZero(&f.stats.delivered, t.delivered)
	addNonZero(&f.stats.hops, t.hops)
	addNonZero(&f.stats.suspends, t.suspends)
	if t.dropped != 0 {
		f.stats.dropped.Add(t.dropped)
		for i, n := range t.drops {
			addNonZero(&f.stats.drops[i], n)
		}
		t.drops = [numDropReasons]int64{}
	}
	t.delivered, t.dropped, t.hops, t.suspends = 0, 0, 0, 0
	if len(t.cells) > 0 {
		f.obs.add(t.cells)
		t.cells = t.cells[:0]
	}
}

// addNonZero adds n to c, which a zero n leaves alone without a write.
func addNonZero(c *atomic.Int64, n int64) {
	if n != 0 {
		c.Add(n)
	}
}

// observed is the empirical traffic matrix (Engine.ObservedMatrix): per
// (ingress, egress) OBS port pair, the copies delivered and dropped since
// the last reset. It is dense over the ports it has counted, ranked as
// they first appear, so a port a restore adds is ranked at its first
// packet and fold adds a run's cells by index under the one lock.
type observed struct {
	mu    sync.Mutex
	rank  []int32       // port id + 1 → rank + 1, 0 where unranked (id -1 is "no egress")
	far   map[int]int32 // the same, for ids past rank's reach
	ports []int         // rank → port id
	n     int           // ranks the matrix has room for: its stride
	count [][2]int64    // rank(in)·n + rank(out) → delivered, dropped
}

// denseIDs bounds the port ids ranked by slice index; others go to far.
const denseIDs = 1 << 16

// add counts a run's cells.
func (m *observed) add(cells []cell) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range cells {
		c := &cells[i]
		u := m.rankOf(c.in)
		v := m.rankOf(c.out) // may grow the matrix: read n after it
		if c.drop {
			m.count[u*m.n+v][1]++
		} else {
			m.count[u*m.n+v][0]++
		}
	}
}

// rankOf returns port id's rank, ranking it first if it has none.
func (m *observed) rankOf(id int) int {
	if i := id + 1; uint(i) < uint(len(m.rank)) && m.rank[i] != 0 {
		return int(m.rank[i] - 1)
	}
	if r, ok := m.far[id]; ok {
		return int(r - 1)
	}
	r := len(m.ports)
	m.ports = append(m.ports, id)
	if i := id + 1; uint(i) < denseIDs {
		if i >= len(m.rank) {
			m.rank = append(m.rank, make([]int32, i+1-len(m.rank))...)
		}
		m.rank[i] = int32(r + 1)
	} else {
		if m.far == nil {
			m.far = map[int]int32{}
		}
		m.far[id] = int32(r + 1)
	}
	if r >= m.n {
		n := max(2*m.n, 16)
		count := make([][2]int64, n*n)
		for u := 0; u < m.n; u++ {
			copy(count[u*n:u*n+m.n], m.count[u*m.n:(u+1)*m.n])
		}
		m.n, m.count = n, count
	}
	return r
}

// each calls fn with every non-zero pair's counts. Callers hold mu.
func (m *observed) each(fn func(in, out int, delivered, dropped int64)) {
	for k, c := range m.count {
		if c != [2]int64{} {
			fn(m.ports[k/m.n], m.ports[k%m.n], c[0], c[1])
		}
	}
}

// VarContention is one state variable's share of lock contention: how many
// blocked acquisitions of its owner switch's lock it was charged with, and
// their cumulative wait. This is the observable "which variable is hot"
// signal — the variable(s) worth sharding (shard.Plan).
type VarContention struct {
	Suspends int64
	WaitNs   int64
}

// LockContention reports per-variable lock contention accumulated over the
// engine's lifetime: the live plane's counters plus the history folded in
// at each reconfiguration. One lock per switch charges a blocked visit to
// every variable the switch owns; placement keeps those sets small, so
// attribution is tight in practice.
func (e *Engine) LockContention() map[string]VarContention {
	out := map[string]VarContention{}
	e.contMu.Lock()
	for v, c := range e.contHist {
		out[v] = c
	}
	e.contMu.Unlock()
	pl := e.plane.Load()
	vs := pl.cfg.VarSpace()
	for id := range pl.lockSusp {
		s, w := pl.lockSusp[id].Load(), pl.lockWait[id].Load()
		if s == 0 && w == 0 {
			continue
		}
		c := out[vs.Name(id)]
		c.Suspends += s
		c.WaitNs += w
		out[vs.Name(id)] = c
	}
	return out
}

// foldContention banks a retiring plane's per-variable contention counters
// into the engine-lifetime history (called under the gate during apply).
func (e *Engine) foldContention(pl *plane) {
	if len(pl.lockSusp) == 0 {
		return
	}
	vs := pl.cfg.VarSpace()
	e.contMu.Lock()
	defer e.contMu.Unlock()
	for id := range pl.lockSusp {
		s, w := pl.lockSusp[id].Load(), pl.lockWait[id].Load()
		if s == 0 && w == 0 {
			continue
		}
		c := e.contHist[vs.Name(id)]
		c.Suspends += s
		c.WaitNs += w
		e.contHist[vs.Name(id)] = c
	}
}
