// The concurrent, batched execution engine. Network (dataplane.go) runs
// one packet at a time to quiescence; Engine runs whole batches or streams
// of packets through the same walk (walk.go), each injection from ingress
// to its last copy on one goroutine, under one concurrency discipline: each
// variable lives in exactly one table, at its owner switch, and that
// switch's lock orders the visits that touch it (the owner applying its
// packets in order, §4.5).
//
//   - the stream paths admit runs of up to runLen packets, one gate
//     enter/leave and one handoff per run; the gate bounds the window;
//   - Options.Workers goroutines drain one queue of admitted runs and walk
//     each packet to completion, visiting every switch's VM themselves
//     rather than handing the copy over (a per-hop channel wakeup would
//     dwarf the VM execution), so the goroutine count is the parallelism
//     bound and benchmarks have a single knob (1 worker ≈ the sequential
//     plane: the injecting goroutine is the worker and none is started);
//   - one mutex per switch that owns state protects its tables; a visit
//     holds it across the VM run. Placement puts each variable — and each
//     shard of a sharded variable, since shards are ordinary variables — on
//     exactly one switch, so visits at different switches never contend;
//     visits at the same owner serialize, preserving per-visit atomicity.
//     Switches owning nothing take no lock.
//
// Equivalence with the sequential plane: every packet copy performs the
// same switch visits and state operations as under Network.Inject; only
// the interleaving across packets differs. For programs whose state
// updates commute (counters, monotone flags) the final global state is
// therefore identical to any sequential order, which the engine tests
// assert against Network.
//
// Reconfiguration: the compiled configuration, the switch VMs and their
// locks live behind one atomically-swapped plane pointer. The compiler
// hands over linked images (rules.SwitchConfig.Linked); a plane build only
// instantiates VMs over them. ApplyConfig installs a recompiled
// rules.Config onto the live engine in an epoch-based swap — pause
// admission, drain in-flight copies to quiescence, hand the state tables to
// their new owner switches, publish the new plane, resume — so long-running
// InjectStream callers continue across the swap and no packet or state
// entry is lost. internal/ctrl drives this from observed
// traffic drift.
package dataplane

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"snap/internal/faultpoint"
	"snap/internal/netasm"
	"snap/internal/pkt"
	"snap/internal/rules"
	"snap/internal/state"
	"snap/internal/telemetry"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// Ingress is one packet entering the network at an OBS port.
type Ingress struct {
	Port   int
	Packet pkt.Packet
}

// Options configures an Engine. The zero value picks sensible defaults.
type Options struct {
	// Workers is how many goroutines walk packets, and so how many VM
	// executions run at once across the whole engine. 1 serializes all
	// packet processing on the injecting goroutine (the sequential
	// baseline); 0 defaults to GOMAXPROCS.
	Workers int
	// SwitchWorkers is read nowhere: it sized the per-switch goroutine pools
	// that Workers replaced, and stays so that callers which set it compile.
	SwitchWorkers int
	// Window bounds how many injected packets are in flight at once. Stream
	// runs carry min(32, Window/(2·Workers)) packets, so the window holds
	// at least two runs per worker, and the worker queue holds Window runs,
	// so handing one over never blocks the injector. 0 → 256.
	Window int
	// StateReplication is read nowhere: it selected the state-compute
	// replication discipline the lock pool replaced, and stays so that
	// callers which set it compile. Every plane runs under locks.
	StateReplication bool
	// TraceSampling enables sampled packet traces: 1 in TraceSampling
	// injections records its hop-by-hop path, state suspensions and
	// inject-to-retirement latency into a ring of the traceBuffer most
	// recent, readable from Telemetry().Traces (and the /debug/vars
	// snapshot). 0 — the default — disables tracing entirely; the hot path
	// then pays one nil check.
	TraceSampling int
}

// ExecMode names an engine concurrency discipline. Only ModeLocks remains:
// the type, ModeReplication and Engine.ExecMode stay so that callers which
// name them compile.
type ExecMode uint8

const (
	// ModeLocks is the lock discipline: one set of switch VMs, one lock per
	// owning switch serializing conflicting visits.
	ModeLocks ExecMode = iota
	// ModeReplication named the deleted state-compute replication
	// discipline; no plane runs it.
	ModeReplication
)

func (m ExecMode) String() string {
	if m == ModeReplication {
		return "replication"
	}
	return "locks"
}

// traceBuffer is how many sampled traces are retained, oldest evicted first.
const traceBuffer = 256

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Window <= 0 {
		o.Window = 256
	}
	return o
}

// maxRun caps how many injections one run carries.
const maxRun = 32

// run is up to maxRun admitted injections that one goroutine walks in order
// and retires together. The pooled record holds pointers and port switches,
// never packets: they stay in the caller's trace, or in buf for a
// channel-fed stream.
type run struct {
	ing []Ingress
	at  [maxRun]topo.NodeID
	tr  [maxRun]*telemetry.PacketTrace // sampled traces, nil where unsampled
	wg  *sync.WaitGroup
	// batch is InjectBatch's collecting injection; nil on the stream paths.
	batch *injection
	buf   *[maxRun]Ingress // InjectStream's receive buffer, made on first use
}

var runPool = sync.Pool{New: func() any { return new(run) }}

// gate is the engine's admission barrier and window, the mechanism behind
// quiescent snapshots and epoch-based reconfiguration. Every run holds an
// enter/leave pair for its packets' whole lifetime (admission through
// last-copy retirement), and at most limit packets are in flight; pause
// blocks new admissions and waits for the in-flight count to drain to
// zero, so between pause and resume no goroutine is inside a walk and the
// state tables are frozen.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	paused   bool
	inflight int
	limit    int
	waiting  int                   // goroutines blocked on cond, whom leave wakes
	watch    func(n, inflight int) // tests only: sees every admission
}

func newGate(limit int) *gate {
	g := &gate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) wait() {
	g.waiting++
	g.cond.Wait()
	g.waiting--
}

// enter admits n injections, blocking while the gate is paused or while
// they would not fit in the window.
func (g *gate) enter(n int) {
	g.mu.Lock()
	for g.paused || g.inflight+n > g.limit {
		g.wait()
	}
	g.inflight += n
	inflight := g.inflight
	g.mu.Unlock()
	if g.watch != nil {
		g.watch(n, inflight)
	}
}

// leave retires n injections and wakes any injector or pauser waiting.
func (g *gate) leave(n int) {
	g.mu.Lock()
	g.inflight -= n
	if g.waiting > 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// pause stops admission and returns once every in-flight injection has
// completed. Concurrent pausers serialize; resume reopens the gate.
func (g *gate) pause() {
	g.mu.Lock()
	for g.paused {
		g.wait()
	}
	g.paused = true
	for g.inflight > 0 {
		g.wait()
	}
	g.mu.Unlock()
}

func (g *gate) resume() {
	g.mu.Lock()
	g.paused = false
	g.cond.Broadcast()
	g.mu.Unlock()
}

// plane is the swappable half of the engine: the compiled configuration,
// the per-switch VMs holding the state tables, and their locks. An
// injection loads it once through an atomic pointer; ApplyConfig publishes
// a replacement only while the gate holds the engine quiescent, so no
// packet ever sees a torn configuration. Network holds a bare one: no
// locks.
type plane struct {
	cfg *rules.Config
	// Per switch, by NodeID: VMs, locks (nil where the switch owns nothing,
	// and everywhere on Network), switch configurations. linkDead is indexed
	// like Topo.Links.
	switches []*netasm.Switch
	locks    []*sync.Mutex
	scs      []*rules.SwitchConfig
	linkDead []atomic.Bool
	// owners is the dense state-owner lookup: variable id (in cfg's
	// VarSpace) → owning switch. placed marks ids that have an owner.
	// Suspended packets carry variable ids, so the per-hop owner lookup is
	// an array index; the string Placement map remains authoritative for
	// the control plane.
	owners []topo.NodeID
	placed []bool
	// lockHist holds the per-variable lock-wait histogram handles (engine
	// planes only), indexed like lockSusp/lockWait; resolved at plane build
	// so the contended path observes without any registry lookup.
	lockHist []*telemetry.Histogram

	// Per-variable lock-contention attribution (engine planes only): a visit
	// whose TryLock fails charges the blocked acquisition and its wait to
	// every variable the switch owns — one lock cannot split blame among
	// them, but placement keeps the sets small. Indexed by VarSpace id;
	// lockVars is switch → owned var ids.
	lockSusp []atomic.Int64
	lockWait []atomic.Int64
	lockVars [][]int32
}

// newPlane starts a plane for a configuration with the parts Network and
// Engine share: the configuration, its views by NodeID and link index, the
// dense owner lookup, and switch VMs over the configuration's linked images.
func newPlane(cfg *rules.Config) *plane {
	vs, n := cfg.VarSpace(), cfg.Topo.Switches
	p := &plane{
		cfg: cfg, owners: make([]topo.NodeID, vs.Len()), placed: make([]bool, vs.Len()),
		switches: make([]*netasm.Switch, n), locks: make([]*sync.Mutex, n),
		scs: make([]*rules.SwitchConfig, n), linkDead: make([]atomic.Bool, len(cfg.Topo.Links)),
	}
	for i := range p.owners {
		p.owners[i], p.placed[i] = cfg.Placement[vs.Name(i)]
	}
	for id, sc := range cfg.Switches {
		p.scs[id] = sc
		p.switches[id] = netasm.NewLinkedSwitch(int(id), sc.Linked)
	}
	return p
}

// portSwitch resolves an OBS port id to the switch it hangs off.
func (pl *plane) portSwitch(id int) (topo.NodeID, bool) {
	if i := pl.cfg.Routes.Port(id); i >= 0 {
		return pl.cfg.Topo.Ports[i].Switch, true
	}
	return 0, false
}

// stateTarget resolves the switch a suspended packet must reach next: the
// owner of the suspending test's variable, or of the first pending write.
func (pl *plane) stateTarget(r *netasm.Result) (topo.NodeID, bool) {
	return pl.owners[r.StateVarID], pl.placed[r.StateVarID]
}

// StateRewrite transforms the global state store during ApplyConfig. The
// controller uses it to fold shard variables (shard.Merge) when the new
// configuration no longer knows them. The store it reads holds the old
// plane's tables, shared, so writing a variable copies that table first;
// the tables of the store it returns are handed to their new owners as
// they are, and that store belongs to the engine from then on.
type StateRewrite func(*state.Store) (*state.Store, error)

// Engine is the concurrent data plane.
type Engine struct {
	fabric
	opts   Options
	plane  atomic.Pointer[plane]
	epoch  atomic.Int64
	runLen int // packets per stream run: min(maxRun, Window/(2·Workers)), ≥ 1
	// queue carries admitted runs to the Options.Workers goroutines that
	// walk them; nil with a single worker.
	queue chan *run
	// walkers holds one walker per worker goroutine, or the injecting
	// goroutine's when it is the only worker (Options.Workers == 1, whose
	// users hold mu). Engine.Load sums their per-switch load.
	walkers []*walker

	// Asynchronous state replication (replication.go); nil when the
	// configuration carries no replicas. repMu guards the pointer: apply
	// swaps it (under the gate, after a flush) while FailSwitch and the
	// stats accessors may fire from other goroutines at any time. repLost
	// survives replicator swaps: it counts mirror writes discarded by
	// switch failures (the replica-lag loss).
	repMu   sync.Mutex
	rep     *replicator
	repLost atomic.Int64

	// Lock-contention history carried across plane epochs: apply() folds
	// the outgoing plane's per-variable counters in here so
	// LockContention survives reconfiguration.
	contMu   sync.Mutex
	contHist map[string]VarContention

	// reseated counts the entries of tables reconfigurations could not
	// hand over as they were: staged tables a rewrite replaced, and
	// replica warm-up clones.
	reseated atomic.Int64

	// Telemetry (telemetry.go): tel is the engine's private registry —
	// almost entirely scrape-time collectors over the atomics above, so
	// the packet loop is unaffected. sampler gates the 1-in-N packet
	// traces collected in traces (both nil at the default TraceSampling
	// of 0); lockWaitVec is the one live histogram, fed from the
	// contended-lock slow path.
	tel         *telemetry.Registry
	sampler     *telemetry.Sampler
	traces      *telemetry.TraceLog
	lockWaitVec *telemetry.HistogramVec

	gate   *gate
	wg     sync.WaitGroup // worker goroutines
	mu     sync.Mutex     // serializes InjectBatch/InjectStream/Close
	closed atomic.Bool
}

// NewEngine builds the concurrent plane for a compiled configuration and
// starts its worker goroutines. The engine owns fresh (empty) state
// tables, independent of any Network built from the same configuration.
// Call Close to stop the goroutines.
//
// Processing errors are sticky: a hop-limit overflow, missing state owner
// or VM fault aborts the current batch AND poisons the engine — every
// later InjectBatch/InjectStream returns the first error without
// injecting. These errors all indicate a miscompiled configuration, and
// the abort may have dropped copies mid-flight, so the state tables are no
// longer trustworthy; build a fresh Engine instead of retrying. An unknown
// ingress port, by contrast, is a caller input error: the offending
// injection is rejected and reported, and the engine stays healthy.
func NewEngine(cfg *rules.Config, opts Options) *Engine {
	opts = opts.withDefaults()
	e := &Engine{
		opts:   opts,
		runLen: min(maxRun, max(1, opts.Window/(2*opts.Workers))),
		gate:   newGate(opts.Window),

		contHist: map[string]VarContention{},
	}
	// The registry and the lock-wait histogram must exist before buildPlane
	// runs: it resolves the per-variable histogram handles.
	e.tel = telemetry.NewRegistry()
	e.fabric.init(cfg, e.tel.Spans)
	e.lockWaitVec = e.tel.HistogramVec("snap_lock_wait_seconds",
		"Wait of blocked switch-lock acquisitions, attributed to every variable the switch owns.",
		1e-9, "var")
	if opts.TraceSampling > 0 {
		e.sampler = telemetry.NewSampler(opts.TraceSampling)
		e.traces = telemetry.NewTraceLog(traceBuffer)
		e.tel.Traces = e.traces
	}
	e.rep = newReplicator(e, cfg)
	pl := e.buildPlane(cfg, e.rep)
	e.plane.Store(pl)
	e.rep.start()
	e.walkers = make([]*walker, opts.Workers)
	for i := range e.walkers {
		e.walkers[i] = new(walker)
	}
	if opts.Workers > 1 {
		// At most Window injections, and so at most Window runs, are in
		// flight, so a send never blocks the injector.
		e.queue = make(chan *run, opts.Window)
		for _, w := range e.walkers {
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				for r := range e.queue {
					e.walkRun(w, r)
				}
			}()
		}
	}
	e.registerMetrics()
	return e
}

// buildPlane instantiates switch VMs over the configuration's linked images
// and gives every switch that owns state one lock.
func (e *Engine) buildPlane(cfg *rules.Config, rep *replicator) *plane {
	p := newPlane(cfg)
	vs := cfg.VarSpace()
	p.lockSusp = make([]atomic.Int64, vs.Len())
	p.lockWait = make([]atomic.Int64, vs.Len())
	p.lockHist = make([]*telemetry.Histogram, vs.Len())
	p.lockVars = make([][]int32, len(p.scs))
	for id, sw := range p.switches {
		if hook := rep.hookFor(topo.NodeID(id)); hook != nil {
			sw.OnStateWrite = hook
		}
		for _, v := range sw.LockVars() {
			vid := vs.ID(v)
			p.lockVars[id] = append(p.lockVars[id], int32(vid))
			// Same variable name across epochs → same histogram child, so
			// waits accumulate over the engine's life.
			p.lockHist[vid] = e.lockWaitVec.With(v)
		}
		if len(p.lockVars[id]) > 0 {
			p.locks[id] = new(sync.Mutex)
		}
	}
	return p
}

// Close stops the worker goroutines. The engine must be quiescent (no
// InjectBatch/InjectStream in progress). The snapshot readers keep working
// afterwards. The gate is held so a concurrent reader or reconfiguration
// either finishes before the workers stop or starts after closed is set.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return
	}
	e.gate.pause()
	defer e.gate.resume()
	e.closed.Store(true)
	if e.queue != nil {
		close(e.queue)
	}
	e.wg.Wait()
	e.replicator().stop()
}

// walkRun walks a run's packets in order, publishes what the run counted
// and retires it: the body of the worker goroutines and of the inline
// single-worker path. guard recovers a walk panic first, so the run still
// folds and retires.
func (e *Engine) walkRun(w *walker, r *run) {
	defer e.retire(r)
	defer e.fold(&w.tally)
	defer e.guard()
	pl, inj := e.plane.Load(), r.batch
	if inj == nil {
		inj = new(injection) // counts only; stays on the stack
	}
	for i := range r.ing {
		if e.failed.Load() {
			break
		}
		inj.tr = r.tr[i]
		e.walk(pl, w, inj, r.at[i], &r.ing[i])
		if r.tr[i] != nil {
			r.tr[i].Finish()
		}
	}
}

// retire pools the record, leaves the gate and wakes the waiter.
func (e *Engine) retire(r *run) {
	n, wg := len(r.ing), r.wg
	*r = run{buf: r.buf}
	runPool.Put(r)
	e.gate.leave(n)
	wg.Done()
}

// inject admits a filled run (blocking on the gate while it is paused or
// the window is full) and hands it to the goroutine that will walk it: the
// caller itself when it is the only worker (a channel handoff would buy no
// parallelism and cost a wakeup), or the worker queue, which keeps the
// injector free to fill the next run. An unknown port ends the run there:
// the packets before it are walked, the rest are released, and the error
// returns — the engine stays usable. r.ing must outlive the walk.
func (e *Engine) inject(r *run, wg *sync.WaitGroup) error {
	n := len(r.ing)
	e.gate.enter(n)
	pl := e.plane.Load()
	var err error
	for i := range r.ing {
		at, ok := pl.portSwitch(r.ing[i].Port)
		if !ok {
			err = fmt.Errorf("dataplane: unknown ingress port %d", r.ing[i].Port)
			e.gate.leave(n - i)
			n, r.ing = i, r.ing[:i]
			break
		}
		r.at[i] = at
	}
	// Each packet keeps its own sequence number, the first being 1.
	seq := e.stats.injected.Add(int64(n)) - int64(n)
	for i := range r.ing {
		if e.sampler.Hit() {
			r.tr[i] = e.traces.Start(r.ing[i].Port, seq+int64(i)+1)
		}
	}
	r.wg = wg
	wg.Add(1)
	if e.queue == nil {
		e.walkRun(e.walkers[0], r)
	} else {
		e.queue <- r
	}
	return err
}

// InjectBatch pushes a batch of packets through the plane concurrently and
// waits for quiescence, one injection per run. out[i] holds the deliveries
// of batch[i], sorted canonically (port, then packet key); multicast copies
// that end up indistinguishable collapse, as in Network.Inject. Ingress
// ports are validated up front, so a bad batch is rejected before any
// packet runs; a processing error mid-batch aborts it (remaining copies
// drain unprocessed) and poisons the engine — see NewEngine.
func (e *Engine) InjectBatch(batch []Ingress) ([][]Delivery, error) {
	pl := e.plane.Load()
	for i := range batch {
		if _, ok := pl.portSwitch(batch[i].Port); !ok {
			return nil, fmt.Errorf("dataplane: unknown ingress port %d (batch index %d)", batch[i].Port, i)
		}
	}
	injs := make([]injection, len(batch))
	i := 0
	if err := e.stream(func(r *run) {
		if i < len(batch) {
			injs[i].collect = true
			r.ing, r.batch = batch[i:i+1:i+1], &injs[i]
			i++
		}
	}); err != nil {
		return nil, err
	}
	out := make([][]Delivery, len(batch))
	for i := range injs {
		sortDeliveries(injs[i].out)
		out[i] = injs[i].out
	}
	return out, nil
}

// InjectStream consumes ingress from ch until it closes, applying the same
// admission control as InjectBatch, and waits for quiescence. Deliveries
// are counted in Stats but not collected, so arbitrarily long replays run
// in constant memory. A run waits for its first packet only, never to
// fill. Returns the first error: a processing error (which
// poisons the engine) or a bad ingress port (which does not — the stream
// stops there, but the engine remains usable).
func (e *Engine) InjectStream(ch <-chan Ingress) error {
	return e.stream(func(r *run) {
		if r.buf == nil {
			r.buf = new([maxRun]Ingress)
		}
		// The first receive waits; the rest take only what is queued.
		n, ok := 0, false
		for r.buf[0], ok = <-ch; ok; {
			if n++; n == e.runLen {
				break
			}
			select {
			case r.buf[n], ok = <-ch:
			default:
				ok = false
			}
		}
		r.ing = r.buf[:n]
	})
}

// stream admits runs until fill leaves one empty, and waits for quiescence:
// the admission and unwind bookkeeping of every frontend. fill sets r.ing
// to at most runLen packets that outlive the walk.
func (e *Engine) stream(fill func(r *run)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		return fmt.Errorf("dataplane: engine is closed")
	}
	if e.failed.Load() {
		return e.err
	}
	var wg sync.WaitGroup
	for !e.failed.Load() {
		r := runPool.Get().(*run)
		if fill(r); len(r.ing) == 0 {
			r.ing = nil
			runPool.Put(r)
			break
		}
		if err := e.inject(r, &wg); err != nil {
			wg.Wait()
			return err
		}
	}
	wg.Wait()
	if e.failed.Load() {
		return e.err
	}
	return nil
}

// InjectReplay pushes a pre-built trace through the plane in stream mode
// (deliveries counted, not collected) and waits for quiescence — the load
// harness's and benchmarks' fast path: runs point into the trace, so no
// packet is copied before its walk.
func (e *Engine) InjectReplay(trace []Ingress) error {
	return e.stream(func(r *run) {
		n := min(e.runLen, len(trace))
		r.ing, trace = trace[:n:n], trace[n:]
	})
}

// ApplyConfig installs a recompiled configuration on the live engine: an
// epoch-based hot swap that preserves every state entry. The sequence is
//
//  1. pause — the admission gate stops new injections (InjectBatch and
//     InjectStream callers block mid-call and continue afterwards) and
//     waits for all in-flight copies to retire, leaving no goroutine
//     inside a walk;
//  2. hand over — each variable's table is given, as it is, to the VM of
//     its owner under the new placement: one step per variable, moved or
//     not, and no entry is read. A non-nil rewrite (internal/ctrl folds
//     shard variables the new configuration no longer knows) reads and
//     returns a state.Store of those same tables, and what it returns is
//     handed over the same way; a mirror replica to warm clones a table;
//  3. swap — fresh VMs holding those tables, the new programs and new
//     routes are published atomically as the next plane epoch, and the
//     gate resumes admission.
//
// The new configuration must target the same physical network (same
// switch count, same OBS port→switch attachment); routing, placement and
// programs are free to change. A state variable with entries but no owner
// under the new placement is an error — fold or drop it in rewrite.
// ApplyConfig must not race with Close.
func (e *Engine) ApplyConfig(cfg *rules.Config, rewrite StateRewrite) error {
	// Post-failover calls carry the degraded topology and pass; the port
	// sets must still match exactly — a surviving network neither grows nor
	// loses ports outside the failover path.
	if err := e.admit("ApplyConfig", cfg, false, nil); err != nil {
		return err
	}
	_, err := e.apply(cfg, rewrite, false, nil)
	return err
}

// recovery lists the failed elements an apply brings back up; the flags
// clear only at the commit point, after the old plane's state has been
// staged (a recovering switch's stale tables must not resurrect) and
// after every error return is behind.
type recovery struct {
	switches []topo.NodeID
	links    [][2]topo.NodeID
}

// apply is the shared swap sequence of ApplyConfig, Failover and Recover,
// structured as a transaction: prepare (flush, stage, rewrite),
// validate (every entry-holding variable has an up owner), build (plane +
// replica seed + hand-over — no goroutines started), then commit.
// Every fallible stage runs in prepareSwap and writes only to the plane
// being prepared; a failure there — or a panic, contained there — rolls
// back: the old plane keeps serving on the unchanged epoch with all state
// intact, the rollback counter bumps, and the error returns for the
// controller's retry discipline. In degraded mode, state owned by down
// switches is recovered from replica tables (promotion) or reported lost;
// otherwise an entry-holding variable without a new owner is an error.
func (e *Engine) apply(cfg *rules.Config, rewrite StateRewrite, degraded bool, rec *recovery) (*FailoverStats, error) {
	began := time.Now()
	e.gate.pause()
	defer e.gate.resume()
	if e.closed.Load() {
		return nil, fmt.Errorf("dataplane: engine is closed")
	}
	if e.failed.Load() {
		return nil, fmt.Errorf("dataplane: cannot reconfigure a poisoned engine: %w", e.err)
	}
	// Mirror writes still queued at alive primaries reach the replica
	// stores before any of them is read or discarded.
	e.replicator().flush()

	fs := &FailoverStats{Promoted: map[string]topo.NodeID{}}
	old := e.plane.Load()
	st := old.state(e.down, false)
	if degraded {
		e.recoverOrphans(old, cfg, st, fs)
	}
	next, newRep, err := e.prepareSwap(cfg, rewrite, st)
	if err != nil {
		return nil, e.rollback(began, err)
	}

	// Commit point: nothing below can fail, and from here the old plane,
	// whose tables the next one now holds, never runs again. The outgoing
	// plane's contention counters bank here (not earlier — a rolled-back
	// apply must not double-count them on retry), recovering elements come
	// back up here — after the stale state of the dead switches was left
	// out of the staging above, and never on an errored apply — and panic
	// quarantine lifts: the poisoned VMs have just been replaced by fresh
	// ones holding the handed-over state.
	e.foldContention(old)
	e.clearQuarantine()
	// linkMu spans the publication: a FailLink lands on the old plane and in
	// the record the next one is flagged from, or on the next.
	e.linkMu.Lock()
	if rec != nil {
		for _, s := range rec.switches {
			e.down[s].Store(false)
		}
		for _, l := range rec.links {
			delete(e.deadLinks, l)
			delete(e.deadLinks, [2]topo.NodeID{l[1], l[0]})
		}
	}
	next.markDeadLinks(e.deadLinks)
	e.plane.Store(next)
	e.linkMu.Unlock()
	e.epoch.Add(1)
	e.repMu.Lock()
	oldRep := e.rep
	e.rep = newRep
	e.repMu.Unlock()
	oldRep.stop()
	newRep.start()
	fs.LostWrites = e.repLost.Load()
	return fs, nil
}

// prepareSwap runs every fallible stage of a reconfiguration — the state
// rewrite, ownership validation, plane build, replica seeding and the
// hand-over — writing only to the plane it builds: the staged store holds
// the old plane's tables shared, so they are read or adopted whole and a
// rewrite that writes one copies it first; an error anywhere aborts with
// the engine exactly as it was. A panic in any stage is
// contained here and rolls back like an error. No goroutines are started
// for the tentative plane (buildPlane and newReplicator guarantee that), so
// abandoning it leaks nothing.
//
// The engine.apply.* fault points mark the three externally injectable
// failure stages — rewrite, link (the plane build over the compiler's
// images), reseed — for tests and the chaos harness.
func (e *Engine) prepareSwap(cfg *rules.Config, rewrite StateRewrite, st *state.Store) (next *plane, newRep *replicator, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("dataplane: contained panic during reconfiguration: %v\n%s", v, debug.Stack())
		}
		if err != nil {
			next, newRep = nil, nil
		}
	}()
	if err := faultpoint.Hit(faultpoint.EngineApplyRewrite); err != nil {
		return nil, nil, fmt.Errorf("dataplane: state rewrite: %w", err)
	}
	if rewrite != nil {
		out, err := rewrite(st.Clone())
		if err != nil {
			return nil, nil, fmt.Errorf("dataplane: state rewrite: %w", err)
		}
		// A fold reads every entry of the tables it replaces; the tables
		// it passes through are handed over as they are.
		for _, v := range st.Vars() {
			if !out.Shares(st, v) {
				e.reseated.Add(int64(st.Len(v)))
			}
		}
		st = out
	}
	// Validate ownership before paying for the build: an entry-holding
	// variable the new placement cannot seat fails the swap regardless of
	// what the plane would look like.
	vars := st.Vars()
	for _, v := range vars {
		owner, ok := cfg.Placement[v]
		if !ok {
			return nil, nil, fmt.Errorf("dataplane: state variable %s has no owner under the new configuration (fold or drop it in the rewrite)", v)
		}
		if !cfg.Topo.Up(owner) {
			return nil, nil, fmt.Errorf("dataplane: state variable %s placed on down switch %d", v, owner)
		}
	}
	if err := faultpoint.Hit(faultpoint.EngineApplyLink); err != nil {
		return nil, nil, fmt.Errorf("dataplane: link: %w", err)
	}
	// Build the new configuration's replicator and hook the new switch VMs
	// into it; seed the new replica tables from the staged state so backups
	// are warm from the first post-swap packet. The engine's live
	// replicator is only swapped at the caller's commit point.
	newRep = newReplicator(e, cfg)
	newRep.seed(st)
	next = e.buildPlane(cfg, newRep)
	if err := faultpoint.Hit(faultpoint.EngineApplyReseed); err != nil {
		return nil, nil, fmt.Errorf("dataplane: state reseat: %w", err)
	}
	// Hand over: each table, as it is, to its owner's VM.
	for _, v := range vars {
		if owner := cfg.Placement[v]; !next.switches[owner].AdoptTable(v, st.Table(v)) {
			return nil, nil, fmt.Errorf("dataplane: switch %d owns %s but has no table for it", owner, v)
		}
	}
	return next, newRep, nil
}

// replicator returns the live replication pipeline (possibly nil) under
// the pointer lock.
func (e *Engine) replicator() *replicator {
	e.repMu.Lock()
	defer e.repMu.Unlock()
	return e.rep
}

// recoverOrphans stages the entries of variables whose primary owner is
// down: when a backup (per the old configuration) is alive, the replica
// table is authoritative and is handed over as it is; with no surviving
// backup the entries are lost and only counted. Victim tables are never
// read — a dead switch's memory is unreachable by definition; the simulator
// merely still holds it, which lets the loss be counted exactly.
func (e *Engine) recoverOrphans(old *plane, cfg *rules.Config, st *state.Store, fs *FailoverStats) {
	for _, v := range slices.Sorted(maps.Keys(old.cfg.Placement)) {
		owner := old.cfg.Placement[v]
		if !e.down[owner].Load() {
			continue
		}
		if t, ok := e.replicator().aliveReplica(v); ok {
			st.SetTable(v, t)
			fs.Recovered += t.Len()
			if newOwner, ok := cfg.Placement[v]; ok {
				fs.Promoted[v] = newOwner
			}
			continue
		}
		if t, ok := old.switches[owner].TableRef(v); ok && t.Len() > 0 {
			fs.LostVars = append(fs.LostVars, v)
			fs.LostEntries += t.Len()
		}
	}
}

// admit is the admission check in front of apply, shared by ApplyConfig,
// Failover and Recover. A new configuration must target the engine's
// physical network: switch IDs index the failure flags and load counters,
// and port attachments decide where injections enter, so both must be
// preserved across epochs.
// A failed switch must stay failed unless this apply recovers it: a
// topology that treats it as up would silently re-seat state (and route
// traffic) onto a dead switch. Ports may be missing when removedOK (a dead
// switch takes its ports with it) and may appear only on a recovering
// switch; otherwise the port sets must match exactly. Mismatches report the
// precise per-port diff — the failover path and its operators need to see
// exactly which attachment moved, not a bare rejection.
func (e *Engine) admit(op string, cfg *rules.Config, removedOK bool, recovering map[topo.NodeID]bool) error {
	t, cur := cfg.Topo, e.plane.Load().cfg.Topo
	if t.Switches != cur.Switches {
		return fmt.Errorf("dataplane: %s topology has %d switches, engine has %d", op, t.Switches, cur.Switches)
	}
	for n := range e.down {
		if s := topo.NodeID(n); e.down[n].Load() && !recovering[s] && t.Up(s) {
			return fmt.Errorf("dataplane: %s configuration treats failed switch %d as up; recompile on the degraded topology (Failover) or bring the switch back (Recover)", op, n)
		}
	}
	if diff := portDiff(cur, t, removedOK, recovering); diff != "" {
		return fmt.Errorf("dataplane: %s topology port mismatch: %s", op, diff)
	}
	return nil
}

// portDiff describes how topology b's external ports differ from a's:
// added ports (allowed on the switches of addedOn), removed ports (allowed
// when removedOK), and re-attached ports (never allowed — injections would
// enter at the wrong switch). Empty means compatible.
func portDiff(a, b *topo.Topology, removedOK bool, addedOn map[topo.NodeID]bool) string {
	var parts []string
	for _, p := range b.Ports {
		if q, ok := a.PortByID(p.ID); !ok {
			if !addedOn[p.Switch] {
				parts = append(parts, fmt.Sprintf("port %d (switch %d) not on the engine's network, and the switch is not recovering", p.ID, p.Switch))
			}
		} else if q.Switch != p.Switch {
			parts = append(parts, fmt.Sprintf("port %d attached to switch %d, engine has it on switch %d", p.ID, p.Switch, q.Switch))
		}
	}
	if !removedOK {
		for _, p := range a.Ports {
			if _, ok := b.PortByID(p.ID); !ok {
				parts = append(parts, fmt.Sprintf("port %d (switch %d) missing from the new topology", p.ID, p.Switch))
			}
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, "; ")
}

// ExecMode reports the concurrency discipline of the engine: ModeLocks.
func (e *Engine) ExecMode() ExecMode { return ModeLocks }

// Epoch counts the configurations this engine has run: 0 at NewEngine,
// +1 per successful ApplyConfig.
func (e *Engine) Epoch() int64 { return e.epoch.Load() }

// Config returns the configuration of the current plane epoch.
func (e *Engine) Config() *rules.Config { return e.plane.Load().cfg }

// ObservedMatrix returns the engine's empirical traffic matrix per
// (ingress, egress) OBS port pair since the last ResetObserved: delivered
// packets plus dropped copies folded in at their ingress (keyed under the
// intended egress when known, egress -1 otherwise), so drift detection
// sees the offered load even for traffic the plane drops. Each run's
// counts are added whole when the run ends, so the matrix is exact at
// quiescence and, read mid-stream, lags by at most the runs in flight. It
// is what ctrl.Monitor compares against the matrix the running
// configuration was optimized for.
func (e *Engine) ObservedMatrix() traffic.Matrix {
	m := traffic.Matrix{}
	e.obs.mu.Lock()
	defer e.obs.mu.Unlock()
	e.obs.each(func(in, out int, delivered, dropped int64) {
		m[[2]int{in, out}] = float64(delivered + dropped)
	})
	return m
}

// DropsByIngress returns the per-ingress-port dropped-copy counters since
// the last ResetObserved, under the same contract as ObservedMatrix.
func (e *Engine) DropsByIngress() map[int]int64 {
	out := map[int]int64{}
	e.obs.mu.Lock()
	defer e.obs.mu.Unlock()
	e.obs.each(func(in, _ int, _, dropped int64) {
		if dropped != 0 {
			out[in] += dropped
		}
	})
	return out
}

// ResetObserved clears the empirical traffic matrix (deliveries and
// drops), starting a fresh observation window (the controller calls it
// after each reconfiguration). A run in flight adds all its counts after
// the reset.
func (e *Engine) ResetObserved() {
	e.obs.mu.Lock()
	defer e.obs.mu.Unlock()
	clear(e.obs.count)
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// Load reports each switch's share of the work performed so far. The
// snapshot is taken under the admission gate (in-flight traffic drains
// first), so the numbers are exact and mutually consistent even when
// called concurrently with InjectStream.
func (e *Engine) Load() map[topo.NodeID]SwitchLoad {
	loads := e.loads()
	out := make(map[topo.NodeID]SwitchLoad, len(loads))
	for id, l := range loads {
		out[topo.NodeID(id)] = l
	}
	return out
}

// loads sums the walkers' per-switch load, by NodeID, under the gate: the
// walkers write theirs in plain memory, and a drained gate is what orders
// those writes before this read.
func (e *Engine) loads() []SwitchLoad {
	e.gate.pause()
	defer e.gate.resume()
	out := make([]SwitchLoad, len(e.down))
	for _, w := range e.walkers {
		for id, l := range w.load {
			out[id].Processed += l.Processed
			out[id].Ran += l.Ran
			out[id].Suspends += l.Suspends
			out[id].Forwarded += l.Forwarded
		}
	}
	return out
}

// GlobalState unions the per-switch state tables, as Network.GlobalState.
// The union is built under the admission gate: new injections pause and
// in-flight copies drain first, so the snapshot is a consistent quiescent
// point even when taken mid-stream, and the returned store is a copy that
// later traffic cannot mutate. Down switches are excluded — their memory
// died with them — so after a failure this is the *surviving* global
// state.
func (e *Engine) GlobalState() *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	return e.plane.Load().state(e.down, true)
}

// SwitchTable snapshots one switch's tables (tests and diagnostics) as
// Network.SwitchTable does, under the same gate discipline as GlobalState.
func (e *Engine) SwitchTable(id topo.NodeID) *state.Store {
	e.gate.pause()
	defer e.gate.resume()
	return e.plane.Load().snapshot(id)
}
