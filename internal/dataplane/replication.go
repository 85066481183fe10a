// Asynchronous state replication: the runtime half of the compiler's
// replication-aware placement (place.Options.Replicas). Every state write
// a primary switch performs is observed through the netasm write hook —
// under the same switch lock that serializes the write itself, so one
// variable's observations arrive in table order — appended to a per-switch
// mirror queue, and applied to the variable's replica table by a single
// background goroutine, in batches, off the packet hot path.
//
// Every backup of a variable receives every one of its writes, so the
// backups never diverge: the replicator keeps one replica table per
// replicated variable id, which stands for all of them, and applies each
// write once. Observations carry the *post-write* value (never the
// operation), so applying them is idempotent and insensitive to batching
// boundaries. The replica therefore trails the primary by a bounded,
// measurable lag (ReplicaStats): exactly the writes still queued. A switch
// failure discards the victim's queue — those writes are the bounded state
// loss a failover reports — while everything already applied survives in
// the replica, which Engine.Failover promotes by handing the table over.
package dataplane

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/faultpoint"
	"snap/internal/netasm"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/telemetry"
	"snap/internal/topo"
)

// repBuffer is one primary switch's mirror queue of observed writes, each
// as the write hook reports it: variable id, index, post-write value. dead
// marks a failed switch: its queued (and any still-arriving) writes are
// discarded and counted as lost instead of reaching the replicas.
type repBuffer struct {
	mu   sync.Mutex
	dead bool
	ws   []netasm.PendingWrite
}

// replicator owns the mirror pipeline for one configuration epoch. The
// engine swaps it wholesale on reconfiguration (under the gate, after a
// flush), so vs/backups/pending are immutable after construction; tables
// is written by the drain only. All methods are nil-receiver-safe: an
// unreplicated configuration has a nil replicator.
type replicator struct {
	eng     *Engine
	vs      *netasm.VarSpace
	backups [][]topo.NodeID            // by var id: backups in preference order, nil when unreplicated
	tables  []state.Table              // by var id: the replica every backup holds
	pending map[topo.NodeID]*repBuffer // per-primary mirror queues

	// enq/app count writes enqueued and applied; their difference is the
	// replica lag. They are atomics because enq sits on the packet hot
	// path (one bump per replicated write). drainMu serializes the
	// background drain with flush.
	enq     atomic.Int64
	app     atomic.Int64
	drainMu sync.Mutex

	// manual disables the drain goroutine (Options.ManualReplication):
	// writes queue until an explicit flush.
	manual bool

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// newReplicator builds the pipeline for a configuration, or nil when it
// carries no replicas.
func newReplicator(e *Engine, cfg *rules.Config) *replicator {
	if len(cfg.Replicas) == 0 {
		return nil
	}
	vs := cfg.VarSpace()
	r := &replicator{
		eng:     e,
		vs:      vs,
		backups: make([][]topo.NodeID, vs.Len()),
		tables:  make([]state.Table, vs.Len()),
		pending: map[topo.NodeID]*repBuffer{},
		manual:  e.opts.ManualReplication,
		kick:    make(chan struct{}, 1),
		quit:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	for v, backups := range cfg.Replicas {
		r.backups[vs.ID(v)] = backups
		if owner, ok := cfg.Placement[v]; ok && r.pending[owner] == nil {
			r.pending[owner] = &repBuffer{}
		}
	}
	return r
}

// hookFor returns the netasm write observer for a primary switch, or nil
// when the switch owns no replicated variable.
func (r *replicator) hookFor(node topo.NodeID) func(netasm.PendingWrite) {
	if r == nil {
		return nil
	}
	buf, ok := r.pending[node]
	if !ok {
		return nil
	}
	return func(w netasm.PendingWrite) {
		if r.backups[w.VarID] == nil {
			return
		}
		buf.mu.Lock()
		if buf.dead {
			// The switch died under this write; it never reaches a replica.
			buf.mu.Unlock()
			r.eng.repLost.Add(1)
			return
		}
		buf.ws = append(buf.ws, w)
		buf.mu.Unlock()
		r.enq.Add(1)
		select {
		case r.kick <- struct{}{}:
		default:
		}
	}
}

// start launches the background drain goroutine.
func (r *replicator) start() {
	if r == nil {
		return
	}
	if r.manual {
		close(r.done)
		return
	}
	go func() {
		defer close(r.done)
		for {
			select {
			case <-r.quit:
				return
			case <-r.kick:
				r.drainGuarded()
			}
		}
	}()
}

// stop terminates the drain goroutine without flushing: the engine flushes
// explicitly (under the gate) before swapping replicators.
func (r *replicator) stop() {
	if r == nil {
		return
	}
	close(r.quit)
	<-r.done
}

// drainGuarded is the background drainer's panic envelope: a panic while
// applying mirror writes is contained — counted and span-logged on the
// engine — and the drain loop survives to serve the next kick, instead of
// one poisoned write silently killing replication for the rest of the
// process. Writes of the aborted pass that were already swapped out of
// their buffers never reach the replicas; they stay visible as residual
// lag (enqueued − applied), which is the honest signal — the replicas
// really are behind by exactly those writes.
func (r *replicator) drainGuarded() {
	defer func() {
		if v := recover(); v != nil {
			r.eng.stats.containedPanics.Add(1)
			r.eng.tel.Spans.Record(telemetry.Span{
				Kind:     "panic",
				Scenario: "replicator.drain",
				Detail:   fmt.Sprintf("%v\n%s", v, debug.Stack()),
				Start:    time.Now(),
			})
		}
	}()
	r.drain()
}

// drain applies every queued mirror write to its variable's replica table,
// once for all the variable's backups. Buffers
// are swapped out under their own lock and applied outside it, so primary
// writers are blocked only for the swap. The replicator.drain fault point
// sits before the mutex: armed as a stall it parks the background drainer
// right here (writes pile up at the primaries, measurably, until the
// point is disabled); armed as an error it skips the round, leaving the
// queues for the next kick or flush.
func (r *replicator) drain() {
	if err := faultpoint.Hit(faultpoint.ReplicatorDrain); err != nil {
		return
	}
	r.drainMu.Lock()
	defer r.drainMu.Unlock()
	applied := 0
	for _, buf := range r.pending {
		buf.mu.Lock()
		ws := buf.ws
		buf.ws = nil
		buf.mu.Unlock()
		for i := range ws {
			w, t := &ws[i], &r.tables[ws[i].VarID]
			if w.IdxWide != nil {
				t.SetWide(w.IdxWide, w.Val)
			} else {
				t.Set(state.KeyOf(w.Idx), w.Idx, w.Val)
			}
		}
		applied += len(ws)
	}
	if applied > 0 {
		r.app.Add(int64(applied))
	}
}

// flush synchronously drains all queues; after it returns (and absent new
// traffic) the replicas are quiescent: lag zero.
func (r *replicator) flush() {
	if r == nil {
		return
	}
	r.drain()
}

// seed warms the replica tables from the state a reconfiguration staged:
// every replicated variable's replica starts as a clone of its staged
// table. Used when a new replicator is installed mid-life
// (reconfiguration, failover), so backups do not start cold behind a
// populated primary.
func (r *replicator) seed(st staged) {
	if r == nil {
		return
	}
	for v, t := range st {
		if id := r.vs.ID(v); id >= 0 && r.backups[id] != nil {
			r.tables[id] = r.eng.clone(&t)
		}
	}
}

// condemn discards the mirror queue of a failed switch, returning the
// number of writes lost (the replica-lag loss), and marks the buffer dead
// so concurrent in-flight writes are discarded too.
func (r *replicator) condemn(node topo.NodeID) int64 {
	if r == nil {
		return 0
	}
	buf, ok := r.pending[node]
	if !ok {
		return 0
	}
	buf.mu.Lock()
	lost := int64(len(buf.ws))
	buf.ws = nil
	buf.dead = true
	buf.mu.Unlock()
	if lost > 0 {
		// The discarded writes will never be applied; account them so
		// lag (enqueued - applied) returns to zero.
		r.app.Add(lost)
	}
	return lost
}

// aliveReplica returns v's replica table when a backup of v is alive.
// Caller holds the engine quiescent.
func (r *replicator) aliveReplica(v string) (state.Table, bool) {
	if r != nil {
		if id := r.vs.ID(v); id >= 0 {
			for _, b := range r.backups[id] {
				if !r.eng.down[b].Load() {
					return r.tables[id], true
				}
			}
		}
	}
	return state.Table{}, false
}

// replicaStore spells out the replica tables a backup switch holds, nil
// when it backs up nothing.
func (r *replicator) replicaStore(node topo.NodeID) *state.Store {
	var st *state.Store
	for id, backups := range r.backups {
		if slices.Contains(backups, node) {
			if st == nil {
				st = state.NewStore()
			}
			r.tables[id].AddToStore(st, r.vs.Name(id))
		}
	}
	return st
}

// queueDepth counts mirror writes currently queued at the primaries,
// awaiting the drain — the telemetry scrape's live backlog gauge. Each
// buffer is locked only for a length read, so primary writers stall no
// longer than they do for an append.
func (r *replicator) queueDepth() int64 {
	if r == nil {
		return 0
	}
	var n int64
	for _, buf := range r.pending {
		buf.mu.Lock()
		n += int64(len(buf.ws))
		buf.mu.Unlock()
	}
	return n
}

// lag returns enqueued/applied counters.
func (r *replicator) lag() (enq, app int64) {
	if r == nil {
		return 0, 0
	}
	return r.enq.Load(), r.app.Load()
}

// ReplicaStats reports the replication pipeline's progress for the current
// configuration epoch.
type ReplicaStats struct {
	// Enqueued and Applied count mirror writes since the epoch started;
	// Lag = Enqueued - Applied is how far the replicas trail the
	// primaries (0 = quiescent).
	Enqueued int64
	Applied  int64
	Lag      int64
	// LostWrites counts mirror writes discarded by switch failures over
	// the engine's whole life — the replica-lag state loss failover
	// reports.
	LostWrites int64
}

// ReplicaStats snapshots the replication pipeline. Zero-valued when the
// running configuration has no replicas.
func (e *Engine) ReplicaStats() ReplicaStats {
	enq, app := e.replicator().lag()
	return ReplicaStats{
		Enqueued:   enq,
		Applied:    app,
		Lag:        enq - app,
		LostWrites: e.repLost.Load(),
	}
}

// FlushReplication drains the mirror queues to the replica tables under
// the admission gate, returning with the replicas quiescent (lag zero).
// The failover demo and tests use it to establish the "replicas are
// quiescent" precondition for zero-loss recovery; production callers can
// treat it as a barrier before planned maintenance.
func (e *Engine) FlushReplication() {
	e.gate.pause()
	defer e.gate.resume()
	e.replicator().flush()
}

// ReplicaTable snapshots the replica tables a backup switch holds (tests
// and diagnostics) as a store; nil when the switch backs up nothing. Taken
// under the gate after a flush, so it reflects every write admitted so far.
func (e *Engine) ReplicaTable(id topo.NodeID) *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	r := e.replicator()
	if r == nil {
		return nil
	}
	r.flush()
	return r.replicaStore(id)
}
