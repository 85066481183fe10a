// The packet walk: the forwarding walk-through of the paper's §4.5, written
// once. A copy that still owes evaluation or a state write visits the VM of
// every switch it reaches (visit: guard, VM run, outcome dispatch, next hop);
// one that owes only its egress is carried there by match-action entries and
// runs no program on the way (forward). Every runtime in this package is a
// configuration of this loop: a plane to route by and run against, and a
// goroutine that calls walk and then finishes the injection.
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

// fabric is what a walk accounts against and consults besides the plane:
// the counters, per-switch load, observed-matrix shards, failure flags and
// the sticky first error. It outlives plane epochs. Engine embeds one;
// Network holds its own, which is what gives the sequential plane the same
// containment and error discipline.
type fabric struct {
	maxHops int // forwarding-loop guard
	stats   counters

	// Per switch, by NodeID (the switch count is fixed for the fabric's
	// lifetime). obs holds the observed per-(ingress, egress)-pair delivery
	// counts, the empirical traffic matrix (Engine.ObservedMatrix), sharded
	// so the hot-path write contends only with deliveries at the same switch.
	load []switchCounters
	obs  []*obsShard

	// Failure injection (failure.go): down switches drop everything that
	// reaches them, dead links drop copies sent across them. quar
	// (containment.go) is the panic-quarantine flag per switch: a
	// contained VM panic marks its switch here, and copies reaching it
	// drop-and-count until a committed reconfiguration replaces the VM.
	// deadLinks records failed links across plane epochs; the walk reads
	// the plane's flags by link index, which linkMu keeps in step with it.
	down      []atomic.Bool
	quar      []atomic.Bool
	linkMu    sync.Mutex
	deadLinks map[[2]topo.NodeID]bool

	// spans receives the stack of each contained panic; nil on Network.
	spans *telemetry.SpanLog

	failOnce sync.Once
	failed   atomic.Bool
	err      error
}

func (f *fabric) init(cfg *rules.Config, spans *telemetry.SpanLog) {
	f.maxHops = 16 * (cfg.Topo.Switches + 2)
	f.spans = spans
	f.load = make([]switchCounters, cfg.Topo.Switches)
	f.obs = make([]*obsShard, cfg.Topo.Switches)
	f.down = make([]atomic.Bool, cfg.Topo.Switches)
	f.quar = make([]atomic.Bool, cfg.Topo.Switches)
	f.deadLinks = map[[2]topo.NodeID]bool{}
	for i := range f.obs {
		f.obs[i] = &obsShard{counts: map[[2]int]int64{}, drops: map[[2]int]int64{}}
	}
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
// sticky error. Callers defer it after the injection's finish, so the
// injection still completes and no waiter hangs.
func (f *fabric) guard() {
	if v := recover(); v != nil {
		f.fail(fmt.Errorf("dataplane: panic in packet walk: %v\n%s", v, debug.Stack()))
	}
}

// injection is one injected packet: what its walk reports to and what
// finishing it releases. One goroutine runs an injection and all its
// copies to completion, so nothing here is shared while it is in flight;
// the waiter reads out only after wg.Done. Stream-mode injections (no
// delivery collection) are pooled: the steady replay loop re-uses retired
// records instead of allocating one per packet.
type injection struct {
	eng *Engine
	wg  *sync.WaitGroup
	// tr is the sampled packet trace, nil for the (default) unsampled
	// case; finish commits it and clears the field before pooling.
	tr *telemetry.PacketTrace
	// ing buffers a channel-fed packet in the pooled record; others stay put.
	ing *Ingress

	// collect records deliveries in out; otherwise they are only counted.
	collect bool
	out     []Delivery
}

var injPool = sync.Pool{New: func() any { return &injection{ing: new(Ingress)} }}

// finish completes an engine injection once its walk has returned: release
// the admission window and gate, notify the waiter, and return stream-mode
// records to the pool. Batch-mode injections are not pooled — the caller
// still reads their collected deliveries.
func (in *injection) finish() {
	if in.tr != nil {
		in.tr.Finish()
		in.tr = nil
	}
	e, wg := in.eng, in.wg
	if !in.collect {
		in.eng, in.wg = nil, nil
		injPool.Put(in)
	}
	<-e.window
	e.gate.leave()
	wg.Done()
}

// hop is one packet copy on its way to a switch visit. A SimPacket is
// 1 104 bytes, so the walk is arranged to copy one as rarely as it can (see
// walk), and a copy that owes only its egress is never queued (see forward).
type hop struct {
	at   topo.NodeID
	hops int
	sp   netasm.SimPacket
}

// walker is the walking goroutine's own memory: the copies still to visit
// and the VM result buffer, reused across injections so the steady-state
// packet loop allocates nothing.
type walker struct {
	queue   []hop
	results []netasm.Result
}

// walk runs one injection, entering at switch `at`, and all its copies to
// quiescence on the calling goroutine against the plane's switches (run to
// completion): multicast extras join the same local queue, so no copy ever
// changes goroutine and an injection needs no reference count. The plane
// cannot change underneath it — an injection holds the admission gate for
// its whole life and planes swap only while the gate is drained.
//
// The queue is popped last-in-first-out into the slot being visited: the
// visit appends the copies that travel on over the slot it was handed, so
// a chain of single continuations (every hop of a suspended packet) reuses
// one element and the queue never grows past the widest fork. A FIFO queue
// that kept every hop cost 20 % of ns_per_packet on the 5.5-hop WAN
// workload in packet copies alone; TestWalkQueueStaysShort holds the line.
func (f *fabric) walk(pl *plane, w *walker, inj *injection, at topo.NodeID, ing *Ingress) {
	// The packet enters in the initial SNAP-header of §4.5: evaluation
	// starts at the xFDD root. This is the one copy between injection and VM.
	if w.queue == nil {
		w.queue = make([]hop, 1)
	}
	q := w.queue[:1]
	q[0].at, q[0].hops = at, 0
	q[0].sp.Pkt = ing.Packet
	q[0].sp.Hdr = netasm.Header{OBSIn: ing.Port, OBSOut: -1, Node: pl.cfg.RootID, Seq: -1, Phase: netasm.PhaseEval}
	for len(q) > 0 {
		n := len(q) - 1
		q = f.visit(pl, w, inj, &q[n], q[:n])
	}
	w.queue = q[:0]
}

// arrive applies the guards a copy meets at every switch it reaches, visited
// or in transit: it is not served once the fabric has failed, at a down or
// quarantined switch (the drop is observed as offered load), past the hop limit.
func (f *fabric) arrive(at topo.NodeID, hops int, inj *injection, in, out int) bool {
	switch {
	case f.failed.Load():
	case f.down[at].Load():
		f.drop(at, inj, in, out, DropDownSwitch)
	case f.quar[at].Load():
		f.drop(at, inj, in, out, DropQuarantine)
	case hops > f.maxHops:
		f.fail(fmt.Errorf("dataplane: hop limit exceeded at switch %d (forwarding loop?)", at))
	default:
		return true
	}
	return false
}

// visit executes one packet copy at one switch, accounts every copy the VM
// emits and appends those that travel on to q. q's free slot may be c
// itself, so nothing of c is read once the VM has run.
//
// The visit holds the switch's lock (none on Network, or where the switch
// owns nothing) across Run, which never blocks, so holders always progress
// and no wait deadlocks.
func (f *fabric) visit(pl *plane, w *walker, inj *injection, c *hop, q []hop) []hop {
	at, hops := c.at, c.hops
	in, out := c.sp.Hdr.OBSIn, c.sp.Hdr.OBSOut
	if !f.arrive(at, hops, inj, in, out) {
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
	results, err := runContained(pl.switches[at], at, w.results[:0], &c.sp)
	w.results = results
	if mu != nil {
		mu.Unlock()
	}
	f.load[at].processed.Add(1)
	f.load[at].ran.Add(1)
	if err != nil {
		if f.containVMError(at, err) {
			f.drop(at, inj, in, out, DropQuarantine)
		} else {
			f.fail(err)
		}
		return q
	}

	for i := range results {
		r := &results[i]
		in, out := r.Packet.Hdr.OBSIn, r.Packet.Hdr.OBSOut
		switch r.Outcome {
		case netasm.Dropped:
			f.drop(at, inj, in, -1, DropPolicy)

		case netasm.ToEgress:
			// Nothing is pending (the VM returns NeedState while a write is).
			// An outport that is no OBS port leaves nowhere: count as dropped.
			if eg, ok := pl.portSwitch(out); !ok {
				f.drop(at, inj, in, -1, DropNoEgress)
			} else if eg == at {
				f.deliver(at, inj, r, out)
			} else {
				f.forward(pl, inj, r, at, hops, eg)
			}

		case netasm.NeedState:
			// The copy owes a state visit: it takes the shortest path toward
			// the owner (Appendix D's fallback, which always makes progress)
			// and visits every VM on the way; an intermediate owner commits.
			f.stats.suspends.Add(1)
			f.load[at].suspends.Add(1)
			owner, ok := pl.stateTarget(r)
			if !ok {
				f.fail(fmt.Errorf("dataplane: no owner for state of packet at switch %d", at))
			} else if owner == at {
				f.fail(fmt.Errorf("dataplane: suspended for local state at switch %d", at))
			} else if li := pl.scs[at].SPNext[owner]; li < 0 {
				f.fail(fmt.Errorf("dataplane: switch %d cannot reach switch %d", at, owner))
			} else if pl.linkDead[li].Load() {
				f.drop(at, inj, in, out, DropDeadLink)
			} else {
				f.stats.hops.Add(1)
				f.load[at].forwarded.Add(1)
				if inj.tr != nil {
					inj.tr.Hop(int(at), "suspend", pl.cfg.VarSpace().Name(int(r.StateVarID)), -1)
				}
				q = append(q, hop{at: pl.cfg.Topo.Links[li].To, hops: hops + 1, sp: r.Packet})
			}
		}
	}
	return q
}

// forward carries a copy that owes only its egress from switch at to egress
// switch eg, the match-action stage of §4.5: per hop the link (the entry of
// the copy's (inport, outport) pair where this switch has one, else the
// shortest path), the dead-link flag, the counters, the arrival guards. The
// packet stays in the VM result: no program runs, no switch lock is taken
// (transit touches no state), nothing is queued or copied.
func (f *fabric) forward(pl *plane, inj *injection, r *netasm.Result, at topo.NodeID, hops int, eg topo.NodeID) {
	in, out := r.Packet.Hdr.OBSIn, r.Packet.Hdr.OBSOut
	entries := pl.cfg.Routes.Pair(in, out)
	// The shared hop counter is bumped once, on the way out.
	defer func(from int) { f.stats.hops.Add(int64(hops - from)) }(hops)
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
			f.drop(at, inj, in, out, DropDeadLink)
			return
		}
		f.load[at].forwarded.Add(1)
		traceHop(inj.tr, at, "forward", "", out)
		at, hops = pl.cfg.Topo.Links[li].To, hops+1
		if !f.arrive(at, hops, inj, in, out) {
			return
		}
		f.load[at].processed.Add(1)
	}
	f.deliver(at, inj, r, out)
}

// drop accounts one copy discarded at a switch, by reason. out is the
// intended egress when the packet already knew it, negative otherwise.
func (f *fabric) drop(at topo.NodeID, inj *injection, in, out int, why DropReason) {
	if out < 0 {
		out = -1
	}
	f.stats.dropped.Add(1)
	f.stats.drops[why].Add(1)
	f.observeDrop(at, in, out)
	traceHop(inj.tr, at, dropOutcomes[why], "", out)
}

// deliver accounts one copy leaving the network at an OBS port of switch
// at, and records it when the injection collects. eval's output is a packet
// *set*, so multicast copies that end up indistinguishable collapse; a
// collected injection holds one or two deliveries, so the duplicate check
// is a scan.
func (f *fabric) deliver(at topo.NodeID, inj *injection, r *netasm.Result, port int) {
	f.stats.delivered.Add(1)
	f.observe(at, r.Packet.Hdr.OBSIn, port)
	traceHop(inj.tr, at, "deliver", "", port)
	if !inj.collect {
		return
	}
	for i := range inj.out {
		if inj.out[i].Port == port && inj.out[i].Packet.Equal(r.Packet.Pkt) {
			return
		}
	}
	inj.out = append(inj.out, Delivery{Port: port, Packet: r.Packet.Pkt})
}
