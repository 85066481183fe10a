// The soak's inner loop: chunk replay, quiescent-point audits, lockstep
// oracle probes and event execution. Everything here runs at chunk
// boundaries, after InjectReplay has drained the engine to quiescence —
// the one place where "delivered + dropped == injected" and "global state
// is well-defined" are both checkable.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/faultpoint"
	"snap/internal/syntax"
	"snap/internal/traffic"
)

// runChunk builds this chunk's churn trace from the intended workload
// restricted to the lineage topology, advances the shadow oracle over it
// (when tracking), and replays it through the engine.
func (h *harness) runChunk(ci int) error {
	cur := h.intended.Restrict(h.ctl.Compilation().Topo)
	flows := cur.ChurnReplay(h.o.Chunk, churnActive, churnRecycle, h.o.Seed*1000003+int64(ci))
	if flows == nil {
		return fmt.Errorf("no routable demand for chunk trace")
	}
	// Offsetting identities per chunk keeps the churn pressure up across
	// chunk boundaries: the ring restarts each chunk, but the identities
	// it recycles through are globally fresh.
	offset := uint32(ci) * uint32(churnActive+h.o.Chunk/churnRecycle)
	trace := make([]dataplane.Ingress, len(flows))
	for i, f := range flows {
		p := flowPacket(f.Pair[0], f.Pair[1], f.ID+offset)
		trace[i] = dataplane.Ingress{Port: f.Pair[0], Packet: p}
		h.injected[f.Pair[0]]++
	}
	if h.orc.synced && !h.degraded {
		for _, in := range trace {
			if _, err := h.orc.eval(h.ctl.Compilation().Topo, in.Packet); err != nil {
				h.violate(ci, "oracle eval: %v", err)
				h.orc.synced = false
				break
			}
		}
	}
	h.lastChunkLen = len(trace)
	start := time.Now()
	err := h.eng.InjectReplay(trace)
	h.engineNs += time.Since(start).Nanoseconds()
	return err
}

// audit runs the quiescent-point invariants after chunk ci.
func (h *harness) audit(ci int, wasDegraded bool) {
	h.bankObserved()

	// Packet conservation: every injected packet is accounted delivered
	// or dropped once the engine is quiescent.
	st := h.eng.Stats()
	if st.Injected != st.Delivered+st.Dropped {
		h.violate(ci, "packet conservation: injected=%d delivered=%d dropped=%d",
			st.Injected, st.Delivered, st.Dropped)
	}

	// Zero unexplained loss: drops may appear only in a chunk that ran
	// inside an open failure window.
	if dd := st.Dropped - h.lastDrop; dd != 0 {
		if wasDegraded {
			h.rep.DegradedDrops += dd
			h.logf("chunk=%d degraded window dropped %d", ci, dd)
		} else {
			h.violate(ci, "%d drops in a healthy window", dd)
		}
	}
	h.lastDrop = st.Dropped

	// Per-port conservation: the banked observed matrix (deliveries plus
	// attributed drops, summed across observation windows) must account
	// for every packet this harness injected at each port.
	rows := map[int]float64{}
	for k, v := range h.banked {
		rows[k[0]] += v
	}
	for port, inj := range h.injected {
		if got := rows[port]; got < inj-0.5 || got > inj+0.5 {
			h.violate(ci, "port %d conservation: injected %.0f, observed %.0f", port, inj, got)
		}
	}

	// Differential oracle: in tracked windows the engine's merged global
	// state must equal the shadow exactly.
	if h.orc.synced && !h.degraded {
		if got := h.eng.GlobalState(); !got.Equal(h.orc.store) {
			h.violate(ci, "oracle state mismatch: engine disagrees with semantics shadow")
			h.resync(ci, "after mismatch")
		}
		h.rep.OracleStateAudits++
	}
}

// probeFlows injects sampled flows one at a time and compares the engine's
// delivery set against the semantics' prediction for the same packet —
// the lockstep differential check, run only in tracked windows.
func (h *harness) probeFlows(ci int) {
	cur := h.intended.Restrict(h.ctl.Compilation().Topo)
	for i := 0; i < h.o.Probes; i++ {
		pair, ok := drawPair(cur, h.rng)
		if !ok {
			return
		}
		h.probeSeq++
		p := flowPacket(pair[0], pair[1], 0xfff00000+h.probeSeq)
		want, err := h.orc.eval(h.ctl.Compilation().Topo, p)
		if err != nil {
			h.violate(ci, "probe oracle eval: %v", err)
			return
		}
		h.injected[pair[0]]++
		out, err := h.eng.InjectBatch([]dataplane.Ingress{{Port: pair[0], Packet: p}})
		if err != nil {
			h.violate(ci, "probe inject: %v", err)
			return
		}
		got := out[0]
		bad := len(got) != len(want)
		for _, d := range got {
			if !want[fmt.Sprintf("%d|%s", d.Port, d.Packet.Key())] {
				bad = true
			}
		}
		if bad {
			h.violate(ci, "probe %d->%d: engine delivered %d copies, semantics predicts %d",
				pair[0], pair[1], len(got), len(want))
		}
		h.rep.OracleProbes++
	}
	h.bankObserved()
}

// execEvent runs one scheduled event; returning false aborts the soak (a
// controller error leaves the network in a state the schedule no longer
// describes, so continuing would only cascade violations).
func (h *harness) execEvent(ci int, ev event, variants []syntax.Policy) bool {
	switch ev.kind {
	case "shift":
		h.intended = traffic.Zipf(h.pris, demandVolume, 1.4, h.o.Seed+101)
		h.record(ci, "shift", "workload shifted to zipf hot-key matrix")

	case "policy":
		h.polID++
		next := variants[h.polID%len(variants)]
		before := entryCount(h.eng.GlobalState())
		pr, err := h.ctl.ApplyPolicy(next)
		if err != nil {
			h.violate(ci, "policy edit: %v", err)
			return false
		}
		if after := entryCount(h.eng.GlobalState()); after != before {
			h.violate(ci, "policy edit lost state: %d entries before, %d after", before, after)
		}
		h.orc.policy = next
		h.record(ci, "policy", fmt.Sprintf("variant=%d epoch=%d plan={%s}%s",
			h.polID%len(variants), pr.Epoch, pr.Plan, deltaSummary(pr.Delta)))
		if h.o.Verbose {
			h.logf("  policy phases: p1=%s p2=%s p3=%s p5=%s p6=%s swap=%s",
				pr.Times.P1Deps, pr.Times.P2XFDD, pr.Times.P3Map, pr.Times.P5Solve, pr.Times.P6Rules, pr.Swap)
		}

	case "fail":
		// The soak's failures strike at quiescent boundaries, so drain the
		// mirror-replication queues first: the replica a later failover
		// promotes is then a complete copy, which makes the recovery
		// accounting (Recovered, LostEntries) deterministic per seed.
		// Replica *lag* under fire is the replication bench's subject, not
		// this harness's — here lag would only blur the reproducibility
		// the repro commands depend on.
		h.eng.FlushReplication()
		for _, sw := range ev.scen.Switches {
			if err := h.eng.FailSwitch(sw); err != nil {
				h.violate(ci, "fail switch %d: %v", sw, err)
				return false
			}
		}
		for _, l := range ev.scen.Links {
			if err := h.eng.FailLink(l[0], l[1]); err != nil {
				h.violate(ci, "fail link %d-%d: %v", l[0], l[1], err)
				return false
			}
		}
		h.degraded = true
		h.orc.synced = false
		h.record(ci, "fail", ev.scen.String())

	case "failover":
		before := entryCount(h.eng.GlobalState())
		fr, err := h.ctl.Failover(ev.scen)
		if err != nil {
			h.violate(ci, "failover: %v", err)
			return false
		}
		// Bounded state loss: the surviving entries plus exactly what the
		// replicas restored — nothing else appears or disappears.
		if after := entryCount(h.eng.GlobalState()); after != before+fr.Recovered {
			h.violate(ci, "failover entry accounting: %d before + %d recovered != %d after",
				before, fr.Recovered, after)
		}
		h.rep.RecoveredEntries += fr.Recovered
		h.rep.PromotedVars += len(fr.Promoted)
		h.rep.LostEntries += fr.LostEntries
		h.rep.LostWrites = fr.LostWrites
		h.degraded = false
		h.record(ci, "failover", fmt.Sprintf("%s epoch=%d recovered=%d promoted=%d lost=%d lost-ports=%v",
			ev.scen, fr.Epoch, fr.Recovered, len(fr.Promoted), fr.LostEntries, fr.LostPorts))
		h.resync(ci, "post-failover")

	case "restore":
		before := entryCount(h.eng.GlobalState())
		rr, err := h.ctl.Restore(ev.scen, h.intended)
		if err != nil {
			h.violate(ci, "restore: %v", err)
			return false
		}
		// Revived switches come back empty: recovery must not invent or
		// drop entries.
		if after := entryCount(h.eng.GlobalState()); after != before {
			h.violate(ci, "restore entry accounting: %d entries before, %d after", before, after)
		}
		h.record(ci, "restore", fmt.Sprintf("%s epoch=%d restored-ports=%v plan={%s}",
			ev.scen, rr.Epoch, rr.RestoredPorts, rr.Plan))
		h.resync(ci, "post-restore")

	case "cfail":
		// Controller failure: the recompile of a policy rotation fails
		// once. The controller returns the error with nothing advanced;
		// the identical edit, issued again, commits.
		pr, ok := h.faultedEdit(ci, "cfail", faultpoint.CtrlRecompile, variants)
		if !ok {
			return false
		}
		h.record(ci, "cfail", fmt.Sprintf("recompile fault returned, edit issued again; variant=%d epoch=%d",
			h.polID%len(variants), pr.Epoch))

	case "afail":
		// Mid-swap engine failure: the apply stage of a policy rotation
		// fails once and the engine rolls back to the prior plane with
		// state intact. The identical edit, issued again, commits — so
		// the epoch advances exactly once across the event.
		epochBefore := h.eng.Epoch()
		rollbacksBefore := h.eng.Stats().Rollbacks
		pr, ok := h.faultedEdit(ci, "afail", faultpoint.EngineApplyLink, variants)
		if !ok {
			return false
		}
		if d := h.eng.Stats().Rollbacks - rollbacksBefore; d != 1 {
			h.violate(ci, "afail: %d rollbacks, want 1", d)
		}
		if d := h.eng.Epoch() - epochBefore; d != 1 {
			h.violate(ci, "afail: epoch advanced by %d across the event, want exactly 1", d)
		}
		h.record(ci, "afail", fmt.Sprintf("apply fault rolled back, edit issued again; variant=%d epoch=%d",
			h.polID%len(variants), pr.Epoch))

	case "wpanic":
		// Worker panic: one probe packet trips an injected VM panic at its
		// ingress switch. The panic fires before the VM writes, so the
		// shadow oracle stays synced with zero lost state; the engine
		// quarantines the switch (drop and count) and keeps serving on the
		// same epoch. Re-committing the current policy heals the switch.
		cur := h.intended.Restrict(h.ctl.Compilation().Topo)
		pair, ok := drawPair(cur, h.rng)
		if !ok {
			h.record(ci, "wpanic", "skipped: no routable demand")
			return true
		}
		before := entryCount(h.eng.GlobalState())
		panicsBefore := h.eng.Stats().ContainedPanics
		h.probeSeq++
		p := flowPacket(pair[0], pair[1], 0xffe00000+h.probeSeq)
		faultpoint.Enable(faultpoint.EngineRun, faultpoint.Plan{Kind: faultpoint.KindPanic, Times: 1})
		h.injected[pair[0]]++
		out, err := h.eng.InjectBatch([]dataplane.Ingress{{Port: pair[0], Packet: p}})
		if err != nil {
			h.violate(ci, "wpanic: injected panic poisoned the engine: %v", err)
			return false
		}
		if len(out[0]) != 0 {
			h.violate(ci, "wpanic: panicked packet still delivered %d copies", len(out[0]))
		}
		if d := h.eng.Stats().ContainedPanics - panicsBefore; d != 1 {
			h.violate(ci, "wpanic: %d contained panics, want 1", d)
		}
		quar := h.eng.QuarantinedSwitches()
		if len(quar) != 1 {
			h.violate(ci, "wpanic: %d switches quarantined, want 1", len(quar))
		}
		if after := entryCount(h.eng.GlobalState()); after != before {
			h.violate(ci, "wpanic lost state: %d entries before, %d after", before, after)
		}
		if _, err := h.ctl.ApplyPolicy(variants[h.polID%len(variants)]); err != nil {
			h.violate(ci, "wpanic heal: %v", err)
			return false
		}
		if q := h.eng.QuarantinedSwitches(); len(q) != 0 {
			h.violate(ci, "wpanic: quarantine survived the healing swap: %v", q)
		}
		if after := entryCount(h.eng.GlobalState()); after != before {
			h.violate(ci, "wpanic heal lost state: %d entries before, %d after", before, after)
		}
		// The panicked probe is this event's one explained drop; fold it
		// into the ledgers so the next audit sees a clean healthy window.
		h.bankObserved()
		h.lastDrop = h.eng.Stats().Dropped
		h.record(ci, "wpanic", fmt.Sprintf("panic contained; quarantined=%v healed epoch=%d",
			quar, h.eng.Epoch()))

	case "corrupt":
		if h.o.corrupt != nil {
			if err := h.o.corrupt(h.eng, h.ctl.Compilation().Config); err != nil {
				h.violate(ci, "corrupt hook: %v", err)
				return false
			}
			h.record(ci, "corrupt", "state tampered by test hook")
		}
	}
	return true
}

// faultedEdit rotates to the next policy variant with a one-shot fault
// armed at point. The first ApplyPolicy must return the injected error and
// move nothing — compilation, epoch, state entries; the identical edit,
// issued again, must commit without losing an entry. ok is false when
// either call did otherwise and the soak cannot continue.
func (h *harness) faultedEdit(ci int, kind, point string, variants []syntax.Policy) (pr *ctrl.PolicyReport, ok bool) {
	h.polID++
	next := variants[h.polID%len(variants)]
	before := entryCount(h.eng.GlobalState())
	comp, epoch := h.ctl.Compilation(), h.eng.Epoch()
	faultpoint.Enable(point, faultpoint.Plan{Times: 1})
	if _, err := h.ctl.ApplyPolicy(next); !errors.Is(err, faultpoint.ErrInjected) {
		h.violate(ci, "%s: edit returned %v, want the injected fault", kind, err)
		return nil, false
	}
	if h.ctl.Compilation() != comp || h.eng.Epoch() != epoch {
		h.violate(ci, "%s: failed edit moved the controller (epoch %d → %d)", kind, epoch, h.eng.Epoch())
	}
	if after := entryCount(h.eng.GlobalState()); after != before {
		h.violate(ci, "%s: failed edit lost state: %d entries before, %d after", kind, before, after)
	}
	pr, err := h.ctl.ApplyPolicy(next)
	if err != nil {
		h.violate(ci, "%s: edit issued again: %v", kind, err)
		return nil, false
	}
	if after := entryCount(h.eng.GlobalState()); after != before {
		h.violate(ci, "%s lost state: %d entries before, %d after", kind, before, after)
	}
	h.orc.policy = next
	return pr, true
}

// deltaSummary compacts a recompilation's DeltaReport for the event
// timeline: the path taken and, on the delta path, the reuse counters.
func deltaSummary(d *core.DeltaReport) string {
	if d == nil {
		return ""
	}
	if d.Scenario != "delta" {
		return fmt.Sprintf(" delta=%s", d.Scenario)
	}
	return fmt.Sprintf(" delta=delta dirty-vars=%d nodes=%d/%d contexts=%d apply=%d/%d pinned=%d moved=%d progs=%d/%d dirty-switches=%d",
		len(d.DirtyVars), d.ReusedNodes, d.ReusedNodes+d.FreshNodes,
		d.Contexts, d.ApplyHits, d.ApplyHits+d.ApplyMisses,
		d.PinnedGroups, d.MovedGroups,
		d.ReusedPrograms, d.ReusedPrograms+d.CompiledPrograms, len(d.DirtySwitches))
}

// driftStep runs the passive control loop: if the observed matrix has
// drifted past the monitor's threshold, the controller recompiles and
// hot-swaps — the soak's "TM drift" events are detected, never scripted.
func (h *harness) driftStep(ci int) {
	div, drifted := h.ctl.Drift()
	if !drifted {
		return
	}
	before := entryCount(h.eng.GlobalState())
	rec, err := h.ctl.Step()
	if err != nil {
		h.violate(ci, "drift reconfig: %v", err)
		return
	}
	if rec == nil {
		return
	}
	if after := entryCount(h.eng.GlobalState()); after != before {
		h.violate(ci, "drift reconfig lost state: %d entries before, %d after", before, after)
	}
	h.record(ci, "reconfig", fmt.Sprintf("div=%.2f epoch=%d plan={%s}", div, rec.Epoch, rec.Plan))
}
