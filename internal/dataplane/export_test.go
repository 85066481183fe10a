package dataplane

import (
	"unsafe"

	"snap/internal/netasm"
	"snap/internal/topo"
)

// RunBytes is the size of the record admission hands the walking goroutine
// per run of injections.
const RunBytes = unsafe.Sizeof(run{})

// WatchGate calls watch, on the injecting goroutine, with every admission's
// packet count and the in-flight count it leaves. Callers hold the engine
// quiescent.
func (e *Engine) WatchGate(watch func(n, inflight int)) { e.gate.watch = watch }

// WalkQueueCap reports the capacity of the inline walker's queue. The
// worker pool's walkers live on their goroutines' stacks and are not
// reachable. Callers hold the engine quiescent.
func (e *Engine) WalkQueueCap() int { return cap(e.inline.queue) }

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
