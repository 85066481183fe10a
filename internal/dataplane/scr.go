// State-compute replication: the engine's second concurrency discipline
// (after "State-Compute Replication", arXiv 2309.14647), selected per
// plane at link time when Options.StateReplication is set and the plane
// classifies replication-safe.
//
// Under the lock discipline (engine.go), one hot variable serializes every
// worker behind the same stripe — placement puts each variable on exactly
// one switch, so an unshardable count[inport] makes the whole engine
// effectively single-threaded. This file replicates the state *computation*
// instead of sharing the state: each worker owns a private replica of
// every switch VM (and therefore of every state table), walks injected
// packets end-to-end against it (the walk of walk.go, between a drain and
// a publish) with no locks, and appends its state writes to a compact
// update log (state.Update) that per-worker-pair SPSC ring buffers carry to
// the other workers. Each worker drains its inbound rings before running
// the next packet, re-executing commutative deltas and applying tag-ordered
// last-writer-wins sets (state.Replica), so all replicas converge to the
// same tables once the logs drain — the paper's packet-history ordering,
// with Lamport tags standing in for the shared sequencer.
//
// Equivalence with the sequential plane: a worker publishes its packet's
// log before the injection is finished, and drains before the next packet
// runs, so with one packet in flight at a time the replicated plane is
// lockstep-identical to Network.Inject for any replication-safe program
// (the equivalence suite asserts exactly this). Under concurrency, packets
// in flight on different workers may read replicas that lag each other's
// unpublished writes — the paper's documented commutativity window; sums
// of deltas are nevertheless exact, and the convergence audit
// (AuditReplicas) checks all replicas agree at quiescence.
//
// What stays shared: nothing on the hot path. The admission gate, window,
// stats and observation shards are the same atomics/mutexes as the lock
// discipline (uncontended by design or sharded per switch). The control
// plane (Snapshot, ApplyConfig, Failover, Load) always runs under the
// gate with the engine quiescent; reconcile() drains the rings there, so
// worker 0's replica — which doubles as plane.switches — is the canonical
// Store every control-plane reader sees.
package dataplane

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"snap/internal/netasm"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/topo"
	"snap/internal/xfdd"
)

// ExecMode identifies the concurrency discipline a plane runs under.
type ExecMode uint8

const (
	// ModeLocks is the striped-lock discipline: one set of switch VMs,
	// per-variable stripe locks serializing conflicting visits.
	ModeLocks ExecMode = iota
	// ModeReplication is the state-compute replication discipline: one
	// replica of all switch VMs per worker, no locks, update-log merge.
	ModeReplication
)

func (m ExecMode) String() string {
	if m == ModeReplication {
		return "replication"
	}
	return "locks"
}

// maxSCRWorkers bounds worker ids to the tag's worker-id field.
const maxSCRWorkers = 1 << 16

// replicationBlockers decides whether a plane may run the replication
// discipline, returning the reasons it may not (empty = safe). Sources:
//
//   - per-program blockers from the link step (wide-index writes,
//     non-scalar set values, local touches of unowned variables);
//   - plane-wide act mixing: a variable written by ActSet on one program
//     and ++/-- on another (or the same) cannot merge — last-writer-wins
//     would drop deltas and re-execution would misorder sets;
//   - PR-style mirror replicas in the configuration: the two replication
//     disciplines would both claim the write observers and the failover
//     accounting, so they are mutually exclusive.
func replicationBlockers(cfg *rules.Config, linked map[topo.NodeID]*netasm.Linked, workers int) []string {
	var reasons []string
	if len(cfg.Replicas) > 0 {
		reasons = append(reasons, "configuration mirrors state to replica switches; mirror replication and state-compute replication are mutually exclusive")
	}
	if workers > maxSCRWorkers {
		reasons = append(reasons, fmt.Sprintf("%d workers exceed the update-tag worker-id space (%d)", workers, maxSCRWorkers))
	}
	// Group switches by linked image so each distinct program reports once.
	byProg := make(map[*netasm.Linked][]topo.NodeID)
	for id, lp := range linked {
		byProg[lp] = append(byProg[lp], id)
	}
	acts := map[string]uint8{}
	var progReasons []string
	for lp, ids := range byProg {
		for v, mask := range lp.WriteActs() {
			acts[v] |= mask
		}
		if blocks := lp.ReplicationBlockers(); len(blocks) > 0 {
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			progReasons = append(progReasons, fmt.Sprintf("program of switch %s: %s",
				nodeList(ids), strings.Join(blocks, "; ")))
		}
	}
	sort.Strings(progReasons)
	reasons = append(reasons, progReasons...)
	mixed := make([]string, 0)
	for v, mask := range acts {
		if mask == netasm.WActSet|netasm.WActDelta {
			mixed = append(mixed, v)
		}
	}
	if len(mixed) > 0 {
		sort.Strings(mixed)
		reasons = append(reasons, fmt.Sprintf("variable(s) %s mix assignment with ++/-- across the plane; no merge order reconciles both", strings.Join(mixed, ", ")))
	}
	return reasons
}

func nodeList(ids []topo.NodeID) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%d", id)
	}
	return strings.Join(parts, ",")
}

// collectDiags gathers link-time diagnostics across a plane's programs,
// prefixed with the switches sharing each program (satisfying the
// "once per program" contract even though many switches run it).
func collectDiags(linked map[topo.NodeID]*netasm.Linked) []string {
	byProg := make(map[*netasm.Linked][]topo.NodeID)
	for id, lp := range linked {
		byProg[lp] = append(byProg[lp], id)
	}
	var out []string
	for lp, ids := range byProg {
		diags := lp.Diagnostics()
		if len(diags) == 0 {
			continue
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, d := range diags {
			out = append(out, fmt.Sprintf("program of switch %s: %s", nodeList(ids), d))
		}
	}
	sort.Strings(out)
	return out
}

// LinkDiagnostics links a configuration's programs and returns the plane's
// link-time diagnostics without building an engine (snapsim -v, tooling).
func LinkDiagnostics(cfg *rules.Config) []string {
	linked, _, _ := linkPrograms(cfg, nil)
	return collectDiags(linked)
}

// updateRing is a bounded single-producer single-consumer queue of state
// updates: one per ordered worker pair, so push and pop each have exactly
// one caller and the only shared words are the head and tail indices.
type updateRing struct {
	buf  []state.Update
	_    [8]uint64     // keep head and tail off the buffer's cache line
	head atomic.Uint64 // next slot to pop (consumer-owned)
	_    [8]uint64
	tail atomic.Uint64 // next slot to push (producer-owned)
}

func newUpdateRing(capacity int) *updateRing {
	return &updateRing{buf: make([]state.Update, capacity)}
}

// push appends one update; false when the ring is full (the producer must
// drain its own inbound rings and retry, see publish).
func (r *updateRing) push(u state.Update) bool {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		return false
	}
	r.buf[t%uint64(len(r.buf))] = u
	r.tail.Store(t + 1)
	return true
}

// pop removes the oldest update; false when the ring is empty.
func (r *updateRing) pop() (state.Update, bool) {
	h := r.head.Load()
	if h == r.tail.Load() {
		return state.Update{}, false
	}
	u := r.buf[h%uint64(len(r.buf))]
	r.head.Store(h + 1)
	return u, true
}

// scrWorker is one replication-mode worker: a full private copy of the
// plane's switch VMs (and so of all state tables), a Lamport clock, the
// per-packet update log, and the rings connecting it to its peers.
type scrWorker struct {
	id  int
	eng *Engine
	// switches is this worker's replica of every switch VM; worker 0's
	// doubles as plane.switches, the canonical copy the control plane reads.
	switches []*netasm.Switch
	rep      *state.Replica
	clock    uint64
	log      []state.Update
	in       chan item
	rings    []*updateRing // inbound, indexed by producer worker (nil self)
	outs     []*updateRing // outbound, indexed by consumer worker (nil self)
	peers    []*scrWorker  // all workers, for kicking a backpressured consumer

	// kick wakes this worker to drain its rings when a publisher finds one
	// full and the worker is parked with no traffic — without it, an idle
	// consumer would deadlock a backpressured publisher at end of stream.
	// sync hands the worker a drain request from the control plane
	// (reconcile), so rings only ever have one consumer goroutine.
	kick chan struct{}
	sync chan chan struct{}

	// published counts update-log entries this worker has shipped to its
	// peers (each entry once, however many peers receive it); atomic so
	// the telemetry scrape can read it against live traffic.
	published atomic.Int64

	w walker
}

// scrState is the replication-mode half of a plane: the worker set and the
// round-robin dispatch counter.
type scrState struct {
	workers []*scrWorker
	next    atomic.Uint64
	wg      sync.WaitGroup
}

// ringOccupancy sums the updates currently queued across every
// worker-pair ring. It reads only the rings' atomic head/tail indices, so
// it is safe against live traffic (the telemetry scrape calls it) and
// nil-receiver safe (lock-mode planes have no scrState).
func (s *scrState) ringOccupancy() int64 {
	if s == nil {
		return 0
	}
	var n int64
	for _, wk := range s.workers {
		for _, r := range wk.rings {
			if r == nil {
				continue
			}
			n += int64(r.tail.Load() - r.head.Load())
		}
	}
	return n
}

// updateCounts sums the workers' lifetime update-log counters: published
// counts each logged entry once, applied counts each remote application
// (≈ published × (workers−1) at quiescence). Nil-receiver safe.
func (s *scrState) updateCounts() (published, applied int64) {
	if s == nil {
		return 0, 0
	}
	for _, wk := range s.workers {
		published += wk.published.Load()
		applied += wk.rep.Applied()
	}
	return published, applied
}

// buildSCR constructs the replicated worker set for a classified-safe
// plane. Workers are not started here: apply() can still fail after
// buildPlane, and goroutines must only exist for planes that commit.
func (e *Engine) buildSCR(cfg *rules.Config, linked map[topo.NodeID]*netasm.Linked) *scrState {
	n := e.opts.Workers
	s := &scrState{workers: make([]*scrWorker, n)}
	vs := cfg.VarSpace()
	for w := 0; w < n; w++ {
		wk := &scrWorker{
			id:       w,
			eng:      e,
			switches: newSwitches(linked, cfg.Topo.Switches),
			rep:      state.NewReplica(vs.Len()),
			in:       make(chan item, e.opts.Window),
			kick:     make(chan struct{}, 1),
			sync:     make(chan chan struct{}),
		}
		for _, sw := range wk.switches {
			sw.OnStateWrite = wk.onStateWrite
		}
		for v, owner := range cfg.Placement {
			if tbl, ok := wk.switches[owner].TableRef(v); ok {
				wk.rep.Bind(vs.ID(v), tbl)
			}
		}
		s.workers[w] = wk
	}
	for _, wk := range s.workers {
		wk.rings = make([]*updateRing, n)
		wk.outs = make([]*updateRing, n)
		wk.peers = s.workers
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			r := newUpdateRing(e.opts.ReplicationRing)
			s.workers[src].outs[dst] = r
			s.workers[dst].rings[src] = r
		}
	}
	return s
}

// start spins up the worker loops. Each worker's goroutine is the SOLE
// consumer of that worker's inbound rings — packet processing, publisher
// kicks and control-plane drain requests all converge here, which is what
// keeps the SPSC ring contract honest.
func (s *scrState) start() {
	for _, wk := range s.workers {
		wk := wk
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				select {
				case it, ok := <-wk.in:
					if !ok {
						return
					}
					wk.process(&it)
				case <-wk.kick:
					wk.drain()
				case ack := <-wk.sync:
					wk.drain()
					ack <- struct{}{}
				}
			}
		}()
	}
}

// stop closes the workers' queues and waits for the loops to exit. Callers
// hold the engine quiescent (gate paused or Close), so no sends race the
// close.
func (s *scrState) stop() {
	for _, wk := range s.workers {
		close(wk.in)
	}
	s.wg.Wait()
}

// dispatch hands an injection to the next worker round-robin, or runs it
// inline with a single worker (the same rationale as Engine.inject: one
// worker gains nothing from a channel hop).
func (s *scrState) dispatch(it *item) {
	if len(s.workers) == 1 {
		s.workers[0].process(it)
		return
	}
	w := s.next.Add(1) - 1
	s.workers[w%uint64(len(s.workers))].in <- *it
}

// onStateWrite is the VM write observer: record the operation in the
// per-packet log. Sets advance the Lamport clock and pre-record their tag
// locally so a remote set with a smaller tag cannot later overwrite them.
// Wide-index writes are not logged: the link-time classifier keeps planes
// that make them off this discipline.
func (wk *scrWorker) onStateWrite(w netasm.PendingWrite) {
	if w.IdxWide != nil {
		return
	}
	u := state.Update{VarID: w.VarID, Idx: w.Idx}
	switch w.Act {
	case xfdd.ActSet:
		wk.clock++
		u.Act = state.UpdateSet
		u.Tag = state.MakeTag(wk.clock, wk.id)
		u.Val = w.Val
		wk.rep.RecordLocal(w.VarID, state.KeyOf(w.Idx), u.Tag)
	case xfdd.ActIncr:
		u.Act = state.UpdateIncr
	case xfdd.ActDecr:
		u.Act = state.UpdateDecr
	default:
		return
	}
	wk.log = append(wk.log, u)
}

// drain applies every queued remote update, advancing the Lamport clock
// past the largest set-tag seen so the next local set outranks it.
func (wk *scrWorker) drain() {
	for _, r := range wk.rings {
		if r == nil {
			continue
		}
		for {
			u, ok := r.pop()
			if !ok {
				break
			}
			if c := state.TagClock(u.Tag); c > wk.clock {
				wk.clock = c
			}
			wk.rep.Apply(u)
		}
	}
}

// publish ships the packet's update log to every peer. A full outbound
// ring means the consumer is behind: kick it (in case it is parked with no
// traffic of its own) and drain our own inbound rings while spinning, so a
// cycle of workers publishing at each other always makes progress —
// someone's consumer pops, its publisher completes, and the cycle unwinds.
func (wk *scrWorker) publish() {
	if len(wk.log) == 0 {
		return
	}
	for dst, r := range wk.outs {
		if r == nil {
			continue
		}
		for _, u := range wk.log {
			for !r.push(u) {
				select {
				case wk.peers[dst].kick <- struct{}{}:
				default:
				}
				wk.drain()
				runtime.Gosched()
			}
		}
	}
	wk.published.Add(int64(len(wk.log)))
	wk.log = wk.log[:0]
}

// process runs one injection to completion on this worker: converge the
// replica, walk the packet against it, publish the log, finish the
// injection. The publish-before-finish order is what makes single-packet
// replay lockstep-identical to the sequential plane. The guard covers the
// merge machinery as well as the walk.
func (wk *scrWorker) process(it *item) {
	defer it.inj.finish()
	defer wk.eng.guard()
	wk.drain()
	wk.eng.walk(wk.eng.plane.Load(), wk.switches, &wk.w, it.inj, it.at, it.ing)
	wk.publish()
}

// reconcile converges every worker replica by asking each worker goroutine
// to drain its own rings (keeping the rings single-consumer) and waiting
// for the acknowledgement. Callers hold the engine quiescent (the gate is
// paused), so all logs are fully published, the workers are parked and
// service the request immediately, and one pass converges every replica —
// in particular worker 0's, which the control-plane readers treat as the
// canonical state. The ack channel also orders the workers' table writes
// before the caller's reads. On a closed engine the workers are gone and
// there is nothing to ask: Close converged them before it stopped them.
func (e *Engine) reconcile(pl *plane) {
	if pl == nil || pl.scr == nil || e.closed.Load() {
		return
	}
	for _, wk := range pl.scr.workers {
		ack := make(chan struct{})
		wk.sync <- ack
		<-ack
	}
}

// audit verifies all worker replicas hold equal tables for every placed
// variable. Meaningful only after reconcile (at quiescence).
func (s *scrState) audit(cfg *rules.Config) error {
	vars := slices.Sorted(maps.Keys(cfg.Placement))
	w0 := s.workers[0]
	for _, wk := range s.workers[1:] {
		for _, v := range vars {
			owner := cfg.Placement[v]
			a, okA := w0.switches[owner].TableRef(v)
			b, okB := wk.switches[owner].TableRef(v)
			if !okA || !okB {
				continue
			}
			if !a.Equal(b) {
				return fmt.Errorf("dataplane: replica divergence on %s: worker %d disagrees with worker 0", v, wk.id)
			}
		}
	}
	return nil
}

// ExecMode reports the concurrency discipline of the current plane epoch.
func (e *Engine) ExecMode() ExecMode { return e.plane.Load().mode }

// ReplicationFallback returns why the current plane refused the
// replication discipline: empty when it is running replication, or when
// Options.StateReplication was never requested.
func (e *Engine) ReplicationFallback() []string {
	return append([]string(nil), e.plane.Load().repFallback...)
}

// LinkDiagnostics returns the current plane's link-time diagnostics
// (interpreter-fallback advisories and, when relevant, the replication
// fallback note).
func (e *Engine) LinkDiagnostics() []string {
	return append([]string(nil), e.plane.Load().diags...)
}

// AuditReplicas verifies that all worker replicas have converged to equal
// tables, after pausing admission and draining the update rings. On a
// lock-mode plane it trivially succeeds (there is one copy of the state).
func (e *Engine) AuditReplicas() error {
	e.gate.pause()
	defer e.gate.resume()
	pl := e.plane.Load()
	if pl.scr == nil {
		return nil
	}
	e.reconcile(pl)
	return pl.scr.audit(pl.cfg)
}
