// Failure injection and failover for the concurrent engine. FailSwitch
// and FailLink model the failures real networks have constantly: a killed
// switch takes its in-flight work, its state tables and its
// un-mirrored replication writes with it; a dead link silently eats every
// copy sent across it. Both are injected *live* — traffic keeps flowing
// and the victims' losses surface as observed drops — until the control
// loop (ctrl.Controller.Failover) recompiles for the degraded topology and
// installs the result with Engine.Failover, promoting replica state owners
// so the surviving network picks up with its state intact.
package dataplane

import (
	"fmt"
	"slices"

	"snap/internal/rules"
	"snap/internal/topo"
)

// FailSwitch marks a switch as failed, effective immediately: copies
// queued at or in flight toward it drop (counted in Stats and the
// observed matrix), its state tables become unreachable, and its pending
// replication writes are discarded — they are the replica-lag loss a
// later Failover reports. Failing an already-down switch is a no-op.
// The engine stays healthy: injections continue, minus the victim.
func (e *Engine) FailSwitch(s topo.NodeID) error {
	if int(s) < 0 || int(s) >= len(e.down) {
		return fmt.Errorf("dataplane: FailSwitch: unknown switch %d", s)
	}
	if e.down[s].Swap(true) {
		return nil
	}
	// The pointer lock serializes the condemn against a concurrent
	// replicator swap; the swap itself happens under the gate after a
	// flush, so whichever pipeline the condemn hits has every at-risk
	// write still queued (old epoch) or none yet (new epoch).
	e.repMu.Lock()
	lost := e.rep.condemn(s)
	e.repMu.Unlock()
	if lost > 0 {
		e.repLost.Add(lost)
	}
	return nil
}

// FailLink kills the undirected link between a and b, effective
// immediately: copies forwarded across either direction drop. Failing an
// already-dead link is a no-op.
func (e *Engine) FailLink(a, b topo.NodeID) error {
	e.linkMu.Lock()
	defer e.linkMu.Unlock()
	pl := e.plane.Load()
	if t := pl.cfg.Topo; t.LinkBetween(a, b) < 0 && t.LinkBetween(b, a) < 0 {
		return fmt.Errorf("dataplane: FailLink: no link between switches %d and %d", a, b)
	}
	e.deadLinks[[2]topo.NodeID{a, b}] = true
	e.deadLinks[[2]topo.NodeID{b, a}] = true
	pl.markDeadLinks(e.deadLinks)
	return nil
}

// markDeadLinks flags the failed links the plane's topology still has; callers hold linkMu.
func (pl *plane) markDeadLinks(dead map[[2]topo.NodeID]bool) {
	for l := range dead {
		if li := pl.cfg.Topo.LinkBetween(l[0], l[1]); li >= 0 {
			pl.linkDead[li].Store(true)
		}
	}
}

// SwitchDown reports whether a switch has been failed.
func (e *Engine) SwitchDown(s topo.NodeID) bool {
	return int(s) >= 0 && int(s) < len(e.down) && e.down[s].Load()
}

// FailoverStats accounts one Failover's state recovery.
type FailoverStats struct {
	// Promoted maps each orphaned variable recovered from a replica to
	// its new primary owner.
	Promoted map[string]topo.NodeID
	// Recovered counts the state entries restored from replica tables.
	Recovered int
	// LostVars lists orphaned variables with entries but no surviving
	// replica; LostEntries counts their entries — gone with the victim.
	LostVars    []string
	LostEntries int
	// LostWrites is the engine-lifetime count of replication-lag writes
	// discarded by switch failures: entries newer than the replica lag at
	// failure time. Zero when every failure hit quiescent replicas.
	LostWrites int64
}

// String renders the recovery accounting compactly for logs.
func (fs *FailoverStats) String() string {
	vars := make([]string, 0, len(fs.Promoted))
	for v := range fs.Promoted {
		vars = append(vars, v)
	}
	slices.Sort(vars)
	return fmt.Sprintf("promoted %d var(s) %v, recovered %d entries, lost %d entries (%d vars) + %d lagged writes",
		len(fs.Promoted), vars, fs.Recovered, fs.LostEntries, len(fs.LostVars), fs.LostWrites)
}

// Failover installs a configuration compiled for a degraded topology onto
// the live engine: ApplyConfig's epoch swap with the same-topology
// restriction lifted for failures. The new topology must keep the switch
// count and every surviving port's attachment, but may have lost switches,
// links and ports. State owned by down switches is recovered from the
// first alive replica in promotion-preference order — the backups chosen
// by the replication-aware placement — and re-seated on the new owners;
// orphans without a surviving replica are reported lost, bounded by the
// replica lag plus unreplicated variables. Traffic blocked on the gate
// continues across the swap; injections for ports that died with their
// switch are rejected afterwards as unknown ports, leaving the engine
// healthy.
func (e *Engine) Failover(cfg *rules.Config, rewrite StateRewrite) (*FailoverStats, error) {
	if err := e.admit("Failover", cfg, true, nil); err != nil {
		return nil, err
	}
	return e.apply(cfg, rewrite, nil)
}

// Recover installs a configuration compiled for a (partially) restored
// topology, bringing the listed failed switches and links back into
// service: Failover's inverse. The recovering switches return with *empty*
// state tables — their memory died with them; whatever the failover
// promoted to replicas stays where promotion put it, and the new placement
// is free to move it back. Port attachments may reappear, but only on a
// recovering switch; every port surviving from the current epoch must keep
// its attachment, and a switch that stays failed must stay down in the new
// topology. Recovering an element that is not currently failed is an
// error. The down flags clear atomically with the epoch swap, so traffic
// admitted after Recover returns sees the restored network, never a
// half-revived one.
func (e *Engine) Recover(cfg *rules.Config, rewrite StateRewrite, switches []topo.NodeID, links [][2]topo.NodeID) (*FailoverStats, error) {
	recovering := make(map[topo.NodeID]bool, len(switches))
	for _, s := range switches {
		if int(s) < 0 || int(s) >= len(e.down) {
			return nil, fmt.Errorf("dataplane: Recover: unknown switch %d", s)
		}
		if !e.down[s].Load() {
			return nil, fmt.Errorf("dataplane: Recover: switch %d is not failed", s)
		}
		if !cfg.Topo.Up(s) {
			return nil, fmt.Errorf("dataplane: Recover configuration still treats recovering switch %d as down", s)
		}
		recovering[s] = true
	}
	e.linkMu.Lock()
	alive := slices.IndexFunc(links, func(l [2]topo.NodeID) bool { return !e.deadLinks[l] })
	e.linkMu.Unlock()
	if alive >= 0 {
		return nil, fmt.Errorf("dataplane: Recover: link %d-%d is not failed", links[alive][0], links[alive][1])
	}
	if err := e.admit("Recover", cfg, true, recovering); err != nil {
		return nil, err
	}
	return e.apply(cfg, rewrite, &recovery{switches: switches, links: links})
}
