package dataplane

import (
	"unsafe"

	"snap/internal/netasm"
	"snap/internal/topo"
)

// RunBytes is the size of the record admission hands the walking goroutine
// per run of injections.
const RunBytes = unsafe.Sizeof(run{})

// RunLen reports how many packets a stream run carries at most.
func (e *Engine) RunLen() int { return e.runLen }

// WatchGate calls watch, on the injecting goroutine, with every admission's
// packet count and the in-flight count it leaves. Callers hold the engine
// quiescent.
func (e *Engine) WatchGate(watch func(n, inflight int)) { e.gate.watch = watch }

// WalkQueueCap reports the capacity of the first walker's queue: the
// injecting goroutine's at Workers = 1. Callers hold the engine quiescent.
func (e *Engine) WalkQueueCap() int { return cap(e.walkers[0].queue) }

// StopReplicationDrain stops the current replicator's background drain:
// state writes queue until FlushReplication (or a reconfiguration) pumps
// them, so replica lag is deterministic. The next configuration's
// replicator drains as usual. Callers hold the engine quiescent.
func (e *Engine) StopReplicationDrain() {
	r := e.replicator()
	r.stop()
	r.quit, r.done = make(chan struct{}), make(chan struct{})
	close(r.done) // the engine's own stop returns at once
}

// HoldSwitch takes switch id's lock on the current plane, as a visit there
// would, and returns its release.
func (e *Engine) HoldSwitch(id topo.NodeID) (release func()) {
	mu := e.plane.Load().locks[id]
	mu.Lock()
	return mu.Unlock
}

// HookStateWrites installs hook as the state-write observer of switch id on
// the current plane, where a replicated plane's mirror hook sits. Callers
// hold the engine quiescent.
func (e *Engine) HookStateWrites(id topo.NodeID, hook func(netasm.PendingWrite)) {
	e.plane.Load().switches[id].OnStateWrite = hook
}

// FailLink kills the undirected link between a and b on the sequential
// plane, as Engine.FailLink does on the live one.
func (n *Network) FailLink(a, b topo.NodeID) {
	n.fab.deadLinks[[2]topo.NodeID{a, b}] = true
	n.fab.deadLinks[[2]topo.NodeID{b, a}] = true
	n.pl.markDeadLinks(n.fab.deadLinks)
}

// FabricHotEnd is where the last fabric field the walk reads on every hop
// ends, and FabricCounters where the counters that admission and fold
// write begin and end, all as offsets into the fabric.
var (
	FabricHotEnd = max(
		unsafe.Offsetof(fabric{}.maxHops)+unsafe.Sizeof(fabric{}.maxHops),
		unsafe.Offsetof(fabric{}.failed)+unsafe.Sizeof(fabric{}.failed),
		unsafe.Offsetof(fabric{}.down)+unsafe.Sizeof(fabric{}.down),
		unsafe.Offsetof(fabric{}.quar)+unsafe.Sizeof(fabric{}.quar),
		unsafe.Offsetof(fabric{}.spans)+unsafe.Sizeof(fabric{}.spans),
	)
	FabricCounters = [2]uintptr{unsafe.Offsetof(fabric{}.stats), unsafe.Offsetof(fabric{}.stats) + unsafe.Sizeof(fabric{}.stats)}
	FabricObserved = unsafe.Offsetof(fabric{}.obs)
)
