// Failure containment: the engine-side half of the self-healing control
// plane. Two mechanisms live here —
//
//   - panic containment: every switch-VM execution (the one visit of
//     walk.go, so Network and the engine alike) and the mirror
//     drainer run inside a recover() envelope. A panicking program does
//     not crash the process and does not poison the plane:
//     the panic becomes a *panicError carrying the captured stack, the
//     victim switch is quarantined (its copies drop-and-count, like a
//     failed switch), and the event lands in the span log and the
//     containment counters. Quarantine clears at the next committed
//     reconfiguration, when fresh VMs are re-seated from migrated state.
//
//   - rollback accounting: a reconfiguration that fails mid-swap
//     (engine.go apply) rolls back to the prior plane; the counter and
//     span recorded here are the observable trace of that.
package dataplane

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"snap/internal/faultpoint"
	"snap/internal/netasm"
	"snap/internal/telemetry"
	"snap/internal/topo"
)

// panicError is a VM panic converted to an error by runContained, with the
// stack captured where it unwound.
type panicError struct {
	sw    topo.NodeID
	value any
	stack []byte
}

func (p *panicError) Error() string {
	return fmt.Sprintf("dataplane: contained panic at %s (switch %d): %v", faultpoint.EngineRun, p.sw, p.value)
}

// runContained visits sp at switch sw under the panic envelope (and the
// engine.run faultpoint, which is how tests and the chaos harness inject
// worker panics), leaving the results in w. A recovered panic returns as
// *panicError; the caller quarantines the switch instead of poisoning the plane.
func runContained(sw *netasm.Switch, at topo.NodeID, w *walker, sp *netasm.SimPacket) (err error) {
	w.results, w.forks = w.results[:0], w.forks[:0]
	defer func() {
		if v := recover(); v != nil {
			w.results = w.results[:0]
			err = &panicError{sw: at, value: v, stack: debug.Stack()}
		}
	}()
	if err = faultpoint.Hit(faultpoint.EngineRun); err == nil {
		w.results, err = sw.Visit(w.results, sp, &w.forks)
	}
	return err
}

// containVMError routes a switch-visit error: a contained panic (or an
// injected engine.run error, which exercises the same path) quarantines
// the switch and reports true — the caller drops the copy and carries on.
// Any other error is an organic VM fault and reports false — the caller
// keeps the historical poison-the-engine semantics.
func (f *fabric) containVMError(at topo.NodeID, err error) bool {
	var pe *panicError
	switch {
	case errors.As(err, &pe):
		f.quarantine(at, fmt.Sprint(pe.value), pe.stack)
	case errors.Is(err, faultpoint.ErrInjected):
		f.quarantine(at, err.Error(), nil)
	default:
		return false
	}
	return true
}

// quarantine marks a switch poisoned: subsequent copies reaching it drop
// and count under DropQuarantine (exactly the down-switch discipline, so
// packet conservation audits keep balancing; under replication the program
// is poisoned on some replica, so every replica stops serving it), the
// containment counter bumps, and the span log records the stack. The flag
// clears only at the next committed reconfiguration — the swap discards the
// poisoned VM and re-seats its state on a fresh one.
func (f *fabric) quarantine(at topo.NodeID, detail string, stack []byte) {
	f.stats.containedPanics.Add(1)
	if !f.quar[at].Swap(true) {
		d := fmt.Sprintf("switch %d: %s", at, detail)
		if len(stack) > 0 {
			d += "\n" + string(stack)
		}
		f.spans.Record(telemetry.Span{
			Kind:     "panic",
			Scenario: faultpoint.EngineRun,
			Detail:   d,
			Start:    time.Now(),
		})
	}
}

// clearQuarantine re-admits every quarantined switch; called at the
// commit point of apply, where the poisoned VMs have just been replaced.
func (e *Engine) clearQuarantine() {
	for i := range e.quar {
		e.quar[i].Store(false)
	}
}

// QuarantinedSwitches lists the switches currently under panic
// quarantine, ascending.
func (e *Engine) QuarantinedSwitches() []topo.NodeID {
	var out []topo.NodeID
	for i := range e.quar {
		if e.quar[i].Load() {
			out = append(out, topo.NodeID(i))
		}
	}
	return out
}

// rollback accounts a failed reconfiguration at its single exit: the old
// plane keeps serving on the unchanged epoch (the caller's gate resume
// reopens admission), the rollback counter bumps, and the span log keeps
// the abort reason. Returns err so callers can `return nil, e.rollback(...)`.
func (e *Engine) rollback(began time.Time, err error) error {
	e.stats.rollbacks.Add(1)
	e.tel.Spans.Record(telemetry.Span{
		Kind:     "rollback",
		Detail:   err.Error(),
		Start:    began,
		Duration: time.Since(began),
	})
	return err
}
