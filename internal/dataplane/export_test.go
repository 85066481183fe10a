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

// LinkCacheLen reports how many linked images the cross-epoch cache holds.
// Callers hold the engine quiescent.
func (e *Engine) LinkCacheLen() int { return len(e.linkCache) }

// HoldStripes takes switch id's stripe locks on the current plane, as a
// visit there would, and returns their release.
func (e *Engine) HoldStripes(id topo.NodeID) (release func()) {
	ls := e.plane.Load().locks[id]
	ls.Lock()
	return ls.Unlock
}
