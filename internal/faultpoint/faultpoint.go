// Package faultpoint is the control-plane fault-injection registry: named
// points in the engine, the controller and the replication pipeline where a
// test, the chaos harness or an operator drill can schedule a failure —
// a returned error, a panic, or a stall — without touching the production
// code path around it.
//
// A point that is not armed costs one atomic load (the package-wide armed
// counter), so the hooks are safe to leave in hot paths. Arming is
// explicit, per name, with a Plan describing when the point fires (the
// first N hits, or every hit, after a warmup — never at random, so chaos
// schedules stay reproducible) and what it does. Disable/Reset return the
// process to the unfaulted fast path and release any goroutine parked on a
// stall.
//
// The registry is process-global on purpose: fault points sit in code that
// is constructed many layers below the test that arms them (engine planes,
// controller retries, drain goroutines), and threading a handle through
// every constructor would make the injection sites the most invasive part
// of the system they exist to test. Tests that arm points must Reset in
// cleanup and must not run in parallel with other faultpoint users.
package faultpoint

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Well-known point names. The constant lives here rather than at the call
// site so tests, chaos events and documentation all name the same site.
const (
	// CtrlRecompile fires inside the controller's recompile step (Step,
	// Failover, Restore, ApplyPolicy) before the engine is touched — the
	// "compile failure" fault.
	CtrlRecompile = "ctrl.recompile"
	// EngineApplyLink fires inside Engine.apply before the new plane's
	// VMs are built over the linked images — the "link failure mid-swap"
	// fault.
	EngineApplyLink = "engine.apply.link"
	// EngineApplyRewrite fires in Engine.apply where the state rewrite
	// runs — a rewrite failure during migration.
	EngineApplyRewrite = "engine.apply.rewrite"
	// EngineApplyReseed fires in Engine.apply before the migrated state is
	// re-seated on the new plane — a reseed failure after the build.
	EngineApplyReseed = "engine.apply.reseed"
	// EngineRun fires at every switch-VM execution (a copy forwarded in
	// transit runs none), on Network and engine alike, before the VM
	// touches any state. Armed as KindPanic it is the "worker panic" fault (contained by
	// quarantine); as KindStall it parks the visit.
	EngineRun = "engine.run"
	// ReplicatorDrain fires at the top of the mirror drainer's batch
	// apply — armed as KindStall it is the "stalled drainer" fault.
	ReplicatorDrain = "replicator.drain"
)

// ErrInjected is the sentinel every KindError fault wraps; match with
// errors.Is to distinguish injected failures from organic ones.
var ErrInjected = errors.New("injected fault")

// Kind selects what an armed point does when it fires.
type Kind int

const (
	// KindError makes Hit return an error wrapping ErrInjected.
	KindError Kind = iota
	// KindPanic makes Hit panic — exercising the panic-containment layer.
	KindPanic
	// KindStall makes Hit block until the point is disabled (Disable,
	// Reset) — a hung dependency rather than a failed one.
	KindStall
)

// Plan schedules one armed point. The zero value fires an error exactly
// once, on the first hit.
type Plan struct {
	Kind Kind
	// Times caps how many hits fire: 0 → 1, -1 → every hit while armed.
	Times int
	// After skips the first After hits before the point may fire.
	After int
}

// point is one armed site.
type point struct {
	mu      sync.Mutex
	plan    Plan
	hits    int64
	fired   int64
	release chan struct{} // closed on disable; unblocks stalls
}

var (
	mu     sync.Mutex
	points = map[string]*point{}
	// armed is the fast-path gate: Hit returns immediately while it is 0.
	armed atomic.Int32
)

// Enable arms a point under the given plan, replacing any previous plan
// for the name (and releasing goroutines stalled on it).
func Enable(name string, p Plan) {
	if p.Times == 0 {
		p.Times = 1
	}
	pt := &point{plan: p, release: make(chan struct{})}
	mu.Lock()
	if old, ok := points[name]; ok {
		close(old.release)
	} else {
		armed.Add(1)
	}
	points[name] = pt
	mu.Unlock()
}

// Disable disarms a point, releasing any goroutine stalled on it. Counters
// for the name are discarded with it.
func Disable(name string) {
	mu.Lock()
	if pt, ok := points[name]; ok {
		close(pt.release)
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Reset disarms every point — test cleanup.
func Reset() {
	mu.Lock()
	for name, pt := range points {
		close(pt.release)
		delete(points, name)
		armed.Add(-1)
	}
	mu.Unlock()
}

// Fired reports how many times the named point has fired since it was
// armed (0 when not armed).
func Fired(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if pt, ok := points[name]; ok {
		pt.mu.Lock()
		defer pt.mu.Unlock()
		return pt.fired
	}
	return 0
}

// Hit consults the registry at a named site. Disarmed (the common case):
// returns nil after one atomic load. Armed: depending on the plan, returns
// an injected error, panics, or stalls until the point is disabled.
func Hit(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	pt, ok := points[name]
	mu.Unlock()
	if !ok {
		return nil
	}
	pt.mu.Lock()
	pt.hits++
	eligible := pt.hits > int64(pt.plan.After) &&
		(pt.plan.Times < 0 || pt.fired < int64(pt.plan.Times))
	if !eligible {
		pt.mu.Unlock()
		return nil
	}
	pt.fired++
	plan, release := pt.plan, pt.release
	pt.mu.Unlock()

	switch plan.Kind {
	case KindPanic:
		panic(fmt.Sprintf("faultpoint %s: injected panic", name))
	case KindStall:
		<-release
		return nil
	default:
		return fmt.Errorf("faultpoint %s: %w", name, ErrInjected)
	}
}
