package dataplane

import "unsafe"

// ItemBytes is the size of what admission hands the walking goroutine per
// injection.
const ItemBytes = unsafe.Sizeof(item{})

// WalkQueueCaps reports the capacity of every walk queue the engine has
// grown: the inline walker's and each SCR worker's. The switch pools'
// walkers live on their goroutines' stacks and are not reachable. Callers
// hold the engine quiescent.
func (e *Engine) WalkQueueCaps() []int {
	caps := []int{cap(e.inline.queue)}
	if scr := e.plane.Load().scr; scr != nil {
		for _, wk := range scr.workers {
			caps = append(caps, cap(wk.w.queue))
		}
	}
	return caps
}

// LinkCacheLen reports how many linked images the cross-epoch cache holds.
// Callers hold the engine quiescent.
func (e *Engine) LinkCacheLen() int { return len(e.linkCache) }
