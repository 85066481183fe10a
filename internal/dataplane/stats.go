package dataplane

import "sync/atomic"

// Stats is a point-in-time snapshot of data-plane activity. Both the
// sequential Network and the concurrent Engine maintain these counters
// atomically, so a snapshot taken while traffic is in flight is internally
// consistent per counter (though counters may be mid-update relative to
// each other).
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

// counters is the live, atomically-updated form of Stats.
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
// many suspended for remote state, and how many it sent onward.
type SwitchLoad struct {
	Processed int64
	Ran       int64
	Suspends  int64
	Forwarded int64
}

type switchCounters struct {
	processed atomic.Int64
	ran       atomic.Int64
	suspends  atomic.Int64
	forwarded atomic.Int64
}

func (c *switchCounters) snapshot() SwitchLoad {
	return SwitchLoad{
		Processed: c.processed.Load(),
		Ran:       c.ran.Load(),
		Suspends:  c.suspends.Load(),
		Forwarded: c.forwarded.Load(),
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
