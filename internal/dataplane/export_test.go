package dataplane

import (
	"unsafe"

	"snap/internal/topo"
)

// ItemBytes is the size of what admission hands the walking goroutine per
// injection.
const ItemBytes = unsafe.Sizeof(item{})

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
