// The packet walk: the forwarding walk-through of the paper's §4.5, written
// once. A copy that still owes evaluation or a state write visits the VM of
// every switch it reaches (visit: guard, VM run, outcome dispatch, next hop);
// one that owes only its egress is carried there by match-action entries and
// runs no program on the way (forward). Every runtime in this package is a
// configuration of this loop: a plane to route by and run against, and a
// goroutine that calls walk and then retires the injection.
// See docs/ARCHITECTURE.md for the table of what differs between them.
package dataplane

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/netasm"
	"snap/internal/rules"
	"snap/internal/telemetry"
	"snap/internal/topo"
)

// fabric is what a walk publishes to and consults besides the plane: the
// counters, observed matrix, failure flags and the sticky first error. It
// outlives plane epochs. Engine embeds one; Network holds its own, which
// is what gives the sequential plane the same containment and error
// discipline. The walk itself counts in its walker (tally) and fold
// publishes each run's counts once, so the counters and matrix here are
// exact at quiescence and lag by at most the runs in flight. The fields
// the walk reads on every hop come first, a cache line away from the
// counters that injection and fold write.
type fabric struct {
	maxHops int // forwarding-loop guard
	failed  atomic.Bool

	// Per switch, by NodeID (the switch count is fixed for the fabric's
	// lifetime). Failure injection (failure.go): down switches drop
	// everything that reaches them, dead links drop copies sent across
	// them. quar (containment.go) is the panic-quarantine flag per switch:
	// a contained VM panic marks its switch here, and copies reaching it
	// drop-and-count until a committed reconfiguration replaces the VM.
	down []atomic.Bool
	quar []atomic.Bool

	// deadLinks records failed links across plane epochs; the walk reads
	// the plane's flags by link index, which linkMu keeps in step with it.
	linkMu    sync.Mutex
	deadLinks map[[2]topo.NodeID]bool

	// spans receives the stack of each contained panic; nil on Network.
	spans *telemetry.SpanLog

	failOnce sync.Once
	err      error

	_     [cacheLine]byte
	stats counters
	_     [cacheLine]byte

	// obs is the observed matrix, which fold adds each run's cells to.
	obs observed
}

// cacheLine separates fields written from different cores.
const cacheLine = 64

func (f *fabric) init(cfg *rules.Config, spans *telemetry.SpanLog) {
	f.maxHops = 16 * (cfg.Topo.Switches + 2)
	f.spans = spans
	f.down = make([]atomic.Bool, cfg.Topo.Switches)
	f.quar = make([]atomic.Bool, cfg.Topo.Switches)
	f.deadLinks = map[[2]topo.NodeID]bool{}
}

// fail records the first routing error and aborts outstanding work: walks
// stop at their next visit and the remaining copies are abandoned. These
// errors (hop limit, missing owner, unreachable switch, organic VM fault)
// all indicate a miscompiled configuration, so they stick.
func (f *fabric) fail(err error) {
	f.failOnce.Do(func() {
		f.err = err
		f.failed.Store(true)
	})
}

// guard is the last-resort recover of a goroutine that walks packets. VM
// panics are already contained inside the visit (runContained), so
// anything recovered here is a bug in the package's own routing, merge or
// bookkeeping: the process survives and the captured stack becomes the
// sticky error. Callers defer it after the run's retirement, so the run
// still leaves the gate and no waiter hangs.
func (f *fabric) guard() {
	if v := recover(); v != nil {
		f.fail(fmt.Errorf("dataplane: panic in packet walk: %v\n%s", v, debug.Stack()))
	}
}

// injection is what one injected packet's walk reports to. One goroutine
// runs an injection and all its copies to completion, so nothing here is
// shared while it is in flight; a collecting waiter reads out only after
// its run retires. The stream paths walk every packet of a run against one
// counting injection on the walking goroutine.
type injection struct {
	// tr is the sampled packet trace, nil for the (default) unsampled case.
	tr *telemetry.PacketTrace

	// collect records deliveries in out; otherwise they are only counted.
	collect bool
	out     []Delivery
}

// hop is one packet copy on its way to a switch visit, and the packet the
// VM runs on there: a SimPacket is 1 104 bytes, so it is written once at
// ingress and copied only when a fork's copy travels on (see walk).
type hop struct {
	at   topo.NodeID
	hops int
	sp   netasm.SimPacket
}

// walker is the walking goroutine's own memory: the copies still to visit,
// the VM result buffer and the fork copies of the current visit, reused
// across injections so the steady-state packet loop allocates nothing; its
// share of the per-switch load, by NodeID,
// which only Engine.Load reads, while the engine is quiescent; and the
// tally of the current run, which fabric.fold publishes and empties once
// the run ends.
type walker struct {
	queue   []hop
	results []netasm.Result
	forks   []netasm.SimPacket
	load    []SwitchLoad
	tally

	// The engine's walkers are allocated side by side, one per worker, and
	// each writes its tally on every hop: no two may share a cache line.
	_ [cacheLine]byte
}

// walk runs one injection, entering at switch `at`, and all its copies to
// quiescence on the calling goroutine against the plane's switches (run to
// completion): multicast extras join the same local queue, so no copy ever
// changes goroutine and an injection needs no reference count. The plane
// cannot change underneath it — an injection holds the admission gate for
// its whole life and planes swap only while the gate is drained.
//
// The queue is popped last-in-first-out, and the popped slot is the packet
// the VM runs on in place. A copy that travels on from it stays there, the
// free top of the queue, so a suspended packet's every hop reuses one
// element and copies nothing; a fork's copies are appended over it. A FIFO
// queue that kept every hop cost 20 % of ns_per_packet on the 5.5-hop WAN
// workload in packet copies alone; TestWalkQueueStaysShort holds the line.
func (f *fabric) walk(pl *plane, w *walker, inj *injection, at topo.NodeID, ing *Ingress) {
	// The packet enters in the initial SNAP-header of §4.5, the one copy
	// between injection and VM. Only a retired copy held the slot before,
	// so the header keeps its spill storage.
	if w.queue == nil {
		w.queue, w.load = make([]hop, 1), make([]SwitchLoad, len(f.down))
	}
	q := w.queue[:1]
	q[0].at, q[0].hops = at, 0
	q[0].sp.Pkt = ing.Packet
	q[0].sp.Hdr.Enter(ing.Port, pl.cfg.RootID)
	for len(q) > 0 {
		n := len(q) - 1
		q = f.visit(pl, w, inj, &q[n], q[:n])
	}
	w.queue = q[:0]
}

// arrive applies the guards a copy meets at every switch it reaches, visited
// or in transit: it is not served once the fabric has failed, at a down or
// quarantined switch (the drop is observed as offered load), past the hop limit.
func (f *fabric) arrive(w *walker, inj *injection, at topo.NodeID, hops int, in, out int) bool {
	switch {
	case f.failed.Load():
	case f.down[at].Load():
		w.drop(inj, at, in, out, DropDownSwitch)
	case f.quar[at].Load():
		w.drop(inj, at, in, out, DropQuarantine)
	case hops > f.maxHops:
		f.fail(fmt.Errorf("dataplane: hop limit exceeded at switch %d (forwarding loop?)", at))
	default:
		return true
	}
	return false
}

// visit executes packet copy c at one switch, in place, accounts every copy
// the VM emits and appends those that travel on to q. c is q's free top: a
// result naming it is the visit's only one and re-extends q, and fork
// copies are appended over it only when no result names it.
//
// The visit holds the switch's lock (none on Network, or where the switch
// owns nothing) across the VM run, which never blocks, so holders always progress
// and no wait deadlocks.
func (f *fabric) visit(pl *plane, w *walker, inj *injection, c *hop, q []hop) []hop {
	at, hops := c.at, c.hops
	in, out := c.sp.Hdr.OBSIn, c.sp.Hdr.OBSOut
	if !f.arrive(w, inj, at, hops, in, out) {
		return q
	}
	mu := pl.locks[at]
	if mu != nil && !mu.TryLock() {
		// Count contended acquisitions per variable: the uncontended path
		// is a TryLock (one CAS, same as Lock); only a blocked visit pays
		// for the clock reads and counter updates. The engine count goes up
		// before the wait, so a blocked visit is observable.
		f.stats.lockSuspends.Add(1)
		t0 := time.Now()
		mu.Lock()
		wait := int64(time.Since(t0))
		f.stats.lockWaitNs.Add(wait)
		for _, vid := range pl.lockVars[at] {
			pl.lockSusp[vid].Add(1)
			pl.lockWait[vid].Add(wait)
			pl.lockHist[vid].Observe(wait)
		}
	}
	err := runContained(pl.switches[at], at, w, &c.sp)
	if mu != nil {
		mu.Unlock()
	}
	load := &w.load[at]
	load.Processed++
	load.Ran++
	if err != nil {
		if f.containVMError(at, err) {
			w.drop(inj, at, in, out, DropQuarantine)
		} else {
			f.fail(err)
		}
		return q
	}

	for i := range w.results {
		r := &w.results[i]
		sp := r.Slot(&c.sp, w.forks)
		in, out := sp.Hdr.OBSIn, sp.Hdr.OBSOut
		switch r.Outcome {
		case netasm.Dropped:
			w.drop(inj, at, in, -1, DropPolicy)

		case netasm.ToEgress:
			// Nothing is pending (the VM returns NeedState while a write is).
			// An outport that is no OBS port leaves nowhere: count as dropped.
			if eg, ok := pl.portSwitch(out); !ok {
				w.drop(inj, at, in, -1, DropNoEgress)
			} else if eg == at {
				w.deliver(inj, at, sp, out)
			} else {
				f.forward(pl, w, inj, sp, at, hops, eg)
			}

		case netasm.NeedState:
			// The copy owes a state visit: it takes the shortest path toward
			// the owner (Appendix D's fallback, which always makes progress)
			// and visits every VM on the way; an intermediate owner commits.
			w.suspends++
			load.Suspends++
			owner, ok := pl.stateTarget(r)
			if !ok {
				f.fail(fmt.Errorf("dataplane: no owner for state of packet at switch %d", at))
			} else if owner == at {
				f.fail(fmt.Errorf("dataplane: suspended for local state at switch %d", at))
			} else if li := pl.scs[at].SPNext[owner]; li < 0 {
				f.fail(fmt.Errorf("dataplane: switch %d cannot reach switch %d", at, owner))
			} else if pl.linkDead[li].Load() {
				w.drop(inj, at, in, out, DropDeadLink)
			} else {
				w.hops++
				load.Forwarded++
				if inj.tr != nil {
					inj.tr.Hop(int(at), "suspend", pl.cfg.VarSpace().Name(int(r.StateVarID)), -1)
				}
				if r.Copy == 0 {
					q = q[:len(q)+1] // c itself: the packet stays where it lies
				} else {
					q = append(q, hop{sp: *sp})
				}
				q[len(q)-1].at, q[len(q)-1].hops = pl.cfg.Topo.Links[li].To, hops+1
			}
		}
	}
	return q
}

// forward carries a copy that owes only its egress from switch at to egress
// switch eg, the match-action stage of §4.5: per hop the link (the entry of
// the copy's (inport, outport) pair where this switch has one, else the
// shortest path), the dead-link flag, the tally, the arrival guards. The
// packet stays where the VM left it: no program runs, no switch lock is
// taken (transit touches no state), nothing is queued or copied.
func (f *fabric) forward(pl *plane, w *walker, inj *injection, sp *netasm.SimPacket, at topo.NodeID, hops int, eg topo.NodeID) {
	in, out := sp.Hdr.OBSIn, sp.Hdr.OBSOut
	entries := pl.cfg.Routes.Pair(in, out)
	load := &w.load[at]
	for at != eg {
		li := rules.NextLink(entries, at)
		if li < 0 {
			li = pl.scs[at].SPNext[eg]
		}
		if li < 0 {
			f.fail(fmt.Errorf("dataplane: switch %d cannot reach switch %d", at, eg))
			return
		}
		if pl.linkDead[li].Load() {
			w.drop(inj, at, in, out, DropDeadLink)
			return
		}
		load.Forwarded++
		traceHop(inj.tr, at, "forward", "", out)
		at = pl.cfg.Topo.Links[li].To
		w.hops++
		if hops++; !f.arrive(w, inj, at, hops, in, out) {
			return
		}
		load = &w.load[at]
		load.Processed++
	}
	w.deliver(inj, at, sp, out)
}

// drop accounts one copy discarded at a switch, by reason. out is the
// intended egress when the packet already knew it, negative otherwise.
// The copy counts in the observed matrix against its ingress, keyed by
// that egress (-1 when unknown): drift detection then sees the offered
// load, where a flow the plane drops (policy, dead outport, failure) would
// otherwise vanish from the matrix as if its demand had gone.
func (w *walker) drop(inj *injection, at topo.NodeID, in, out int, why DropReason) {
	if out < 0 {
		out = -1
	}
	w.dropped++
	w.drops[why]++
	w.cells = append(w.cells, cell{in: in, out: out, drop: true})
	traceHop(inj.tr, at, dropOutcomes[why], "", out)
}

// deliver accounts one copy leaving the network at an OBS port of switch
// at, and records it when the injection collects. eval's output is a packet
// *set*, so multicast copies that end up indistinguishable collapse; a
// collected injection holds one or two deliveries, so the duplicate check
// is a scan.
func (w *walker) deliver(inj *injection, at topo.NodeID, sp *netasm.SimPacket, port int) {
	w.delivered++
	w.cells = append(w.cells, cell{in: sp.Hdr.OBSIn, out: port})
	traceHop(inj.tr, at, "deliver", "", port)
	if !inj.collect {
		return
	}
	for i := range inj.out {
		if inj.out[i].Port == port && inj.out[i].Packet.Equal(sp.Pkt) {
			return
		}
	}
	inj.out = append(inj.out, Delivery{Port: port, Packet: sp.Pkt})
}
