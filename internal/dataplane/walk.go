// The packet walk: the forwarding walk-through of the paper's §4.5 (guard,
// VM run, outcome dispatch, next hop), written once. Every runtime in this
// package is a configuration of the loop in this file: a plane to route by,
// a switch set to run against, and a goroutine that calls walk and then
// finishes the injection. See docs/ARCHITECTURE.md for the table of what
// differs between them.
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
	load    map[topo.NodeID]*switchCounters

	// Observed per-(ingress, egress)-pair delivery counts, the empirical
	// traffic matrix (Engine.ObservedMatrix), sharded per delivery switch
	// so the hot-path write contends only with deliveries at the same
	// switch (mirroring the per-switch load counters).
	obs map[topo.NodeID]*obsShard

	// Failure injection (failure.go): down switches drop everything that
	// reaches them, dead links drop copies sent across them. The switch
	// count is fixed for the fabric's lifetime, so down is indexed by
	// NodeID. quar (containment.go) is the panic-quarantine flag per
	// switch: a contained VM panic marks its switch here, and copies
	// reaching it drop-and-count until a committed reconfiguration
	// replaces the VM.
	down      []atomic.Bool
	quar      []atomic.Bool
	linkMu    sync.Mutex // serializes FailLink writers
	deadLinks atomic.Pointer[map[[2]topo.NodeID]bool]

	// spans receives the stack of each contained panic; nil on Network.
	spans *telemetry.SpanLog

	failOnce sync.Once
	failed   atomic.Bool
	err      error
}

func (f *fabric) init(cfg *rules.Config, spans *telemetry.SpanLog) {
	f.maxHops = 16 * (cfg.Topo.Switches + 2)
	f.spans = spans
	f.load = make(map[topo.NodeID]*switchCounters, len(cfg.Switches))
	f.obs = make(map[topo.NodeID]*obsShard, len(cfg.Switches))
	f.down = make([]atomic.Bool, cfg.Topo.Switches)
	f.quar = make([]atomic.Bool, cfg.Topo.Switches)
	for id := range cfg.Switches {
		f.load[id] = &switchCounters{}
		f.obs[id] = &obsShard{counts: map[[2]int]int64{}, drops: map[[2]int]int64{}}
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
	eng    *Engine
	wg     *sync.WaitGroup
	pooled bool
	// tr is the sampled packet trace, nil for the (default) unsampled
	// case; finish commits it and clears the field before pooling.
	tr *telemetry.PacketTrace

	// collect records deliveries in out; otherwise they are only counted.
	collect bool
	out     []Delivery
}

var injPool = sync.Pool{New: func() any { return new(injection) }}

// finish completes an engine injection once its walk has returned: release
// the admission window and gate, notify the waiter, and return pooled
// records. Batch-mode injections are not pooled — the caller still reads
// their collected deliveries.
func (in *injection) finish() {
	if in.tr != nil {
		in.tr.Finish()
		in.tr = nil
	}
	e, wg := in.eng, in.wg
	if in.pooled {
		in.eng, in.wg, in.pooled = nil, nil, false
		injPool.Put(in)
	}
	<-e.window
	e.gate.leave()
	wg.Done()
}

// hop is one packet copy on its way to a switch visit. A SimPacket is
// 1 120 bytes, so the walk is arranged to copy one as rarely as it can:
// see walk.
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
// quiescence on the calling goroutine against the given switch set (run to
// completion, the per-core model of State-Compute Replication, arXiv
// 2309.14647): multicast extras join the same local queue, so no copy ever
// changes goroutine and an injection needs no reference count. The plane
// cannot change underneath it — an injection holds the admission gate for
// its whole life and planes swap only while the gate is drained.
//
// The queue is popped last-in-first-out into the slot being visited: the
// visit appends the copies that travel on over the slot it was handed, so
// a chain of single continuations (every hop of a unicast packet) reuses
// one element and the queue never grows past the widest fork. A FIFO queue
// that kept every hop cost 20 % of ns_per_packet on the 5.5-hop WAN
// workload in packet copies alone; TestWalkQueueStaysShort holds the line.
func (f *fabric) walk(pl *plane, switches map[topo.NodeID]*netasm.Switch, w *walker, inj *injection, at topo.NodeID, ing *Ingress) {
	// The packet enters in the initial SNAP-header of §4.5: evaluation
	// starts at the xFDD root.
	q := append(w.queue[:0], hop{at: at, sp: netasm.SimPacket{
		Pkt: ing.Packet,
		Hdr: netasm.Header{OBSIn: ing.Port, OBSOut: -1, Node: pl.cfg.RootID, Seq: -1, Phase: netasm.PhaseEval},
	}})
	for len(q) > 0 && !f.failed.Load() {
		n := len(q) - 1
		q = f.visit(pl, switches, w, inj, &q[n], q[:n])
	}
	w.queue = q[:0]
}

// visit executes one packet copy at one switch, accounts every copy the VM
// emits and appends those that travel on to q. q's free slot may be c
// itself, so nothing of c is read once the VM has run.
//
// Under the lock discipline the visit holds the switch's stripe locks across
// Run, which never blocks, so holders always progress and no wait deadlocks.
func (f *fabric) visit(pl *plane, switches map[topo.NodeID]*netasm.Switch, w *walker, inj *injection, c *hop, q []hop) []hop {
	at, hops := c.at, c.hops
	in, out := c.sp.Hdr.OBSIn, c.sp.Hdr.OBSOut
	switch {
	case f.down[at].Load():
		// The switch died with this copy in flight toward it: the copy is
		// lost. The drop is observed so the empirical matrix still
		// reflects the offered load.
		f.drop(at, inj, in, out, "")
		return q
	case f.quar[at].Load():
		f.dropQuarantined(at, inj, in, out)
		return q
	case hops > f.maxHops:
		f.fail(fmt.Errorf("dataplane: hop limit exceeded at switch %d (forwarding loop?)", at))
		return q
	}

	ls := pl.locks[at]
	if !ls.Empty() && !ls.TryLock() {
		// Count contended acquisitions per variable: the uncontended path
		// is a TryLock (one CAS per stripe, same as Lock); only a blocked
		// visit pays for the clock reads and counter updates.
		t0 := time.Now()
		ls.Lock()
		wait := int64(time.Since(t0))
		f.stats.lockSuspends.Add(1)
		f.stats.lockWaitNs.Add(wait)
		for _, vid := range pl.lockVars[at] {
			pl.lockSusp[vid].Add(1)
			pl.lockWait[vid].Add(wait)
			pl.lockHist[vid].Observe(wait)
		}
	}
	results, err := runContained(switches[at], at, w.results[:0], &c.sp)
	w.results = results
	if !ls.Empty() {
		ls.Unlock()
	}
	f.load[at].processed.Add(1)
	if err != nil {
		if f.containVMError(at, err) {
			f.dropQuarantined(at, inj, in, out)
		} else {
			f.fail(err)
		}
		return q
	}

	for i := range results {
		r := &results[i]
		in, out := r.Packet.Hdr.OBSIn, r.Packet.Hdr.OBSOut
		var target topo.NodeID
		outcome, egress := "forward", out
		switch r.Outcome {
		case netasm.Dropped:
			f.drop(at, inj, in, -1, "")
			continue

		case netasm.Delivered:
			f.deliver(at, inj, r, out)
			continue

		case netasm.NeedState:
			f.stats.suspends.Add(1)
			f.load[at].suspends.Add(1)
			owner, ok := pl.stateTarget(r)
			if !ok {
				f.fail(fmt.Errorf("dataplane: no owner for state of packet at switch %d", at))
				continue
			}
			if owner == at {
				f.fail(fmt.Errorf("dataplane: suspended for local state at switch %d", at))
				continue
			}
			target, outcome, egress = owner, "suspend", -1

		case netasm.ToEgress:
			eg, ok := pl.cfg.Topo.PortByID(out)
			if !ok {
				// Outport set to a value that is not an OBS port: the
				// packet leaves the system nowhere; count as dropped.
				f.drop(at, inj, in, -1, "")
				continue
			}
			if eg.Switch == at {
				f.deliver(at, inj, r, eg.ID)
				continue
			}
			target = eg.Switch
		}
		next, li, err := nextHopLink(pl.cfg, at, &r.Packet.Hdr, target)
		if err != nil {
			f.fail(err)
			continue
		}
		if f.linkDead(pl.cfg.Topo.Links[li]) {
			f.drop(at, inj, in, out, r.StateVar)
			continue
		}
		f.stats.hops.Add(1)
		f.load[at].forwarded.Add(1)
		traceHop(inj.tr, at, outcome, r.StateVar, egress)
		q = append(q, hop{at: next, hops: hops + 1, sp: r.Packet})
	}
	return q
}

// drop accounts one copy discarded at a switch: by policy, at a dead
// outport, a down switch or a dead link. out is the intended egress when
// the packet already knew it, negative otherwise.
func (f *fabric) drop(at topo.NodeID, inj *injection, in, out int, stateVar string) {
	if out < 0 {
		out = -1
	}
	f.stats.dropped.Add(1)
	f.observeDrop(at, in, out)
	traceHop(inj.tr, at, "drop", stateVar, out)
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

// nextHopLink picks the outgoing link from `at` toward `target`. A packet
// still owing state visits (evaluation suspends or pending writes) follows
// the shortest-path next hop toward the owning switch — the Appendix D
// fallback, guaranteed to make progress. Once only the egress remains, the
// optimizer's (u,v) match-action entry is preferred. The link index is
// returned so the walk can honor injected link failures.
func nextHopLink(cfg *rules.Config, at topo.NodeID, h *netasm.Header, target topo.NodeID) (topo.NodeID, int, error) {
	sc := cfg.Switches[at]
	if h.OBSOut >= 0 && h.Phase == netasm.PhaseDeliver && h.PendingLen() == 0 {
		if li, ok := sc.RouteNext[[2]int{h.OBSIn, h.OBSOut}]; ok {
			return cfg.Topo.Links[li].To, li, nil
		}
	}
	li := sc.SPNext[target]
	if li < 0 {
		return 0, -1, fmt.Errorf("dataplane: switch %d cannot reach switch %d", at, target)
	}
	return cfg.Topo.Links[li].To, li, nil
}
