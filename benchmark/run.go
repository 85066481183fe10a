// One workload, one process: set-up, the correctness pass, and the timed
// phases of the end-to-end pass. The traced pass is in layers.go.
//
// Load model: closed loop everywhere. One goroutine injects packets
// (Engine.InjectReplay, Window 256, SwitchWorkers 2) and one operator issues
// control-plane operations back to back. The benchmark starts no goroutines
// of its own.
package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/parser"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// small is set by the tests only: 1/200 of every packet count, the
	// reduced topologies, one operation of each kind, one set-up round.
	small bool
	// out is the result file; the traced pass writes its spans beside it.
	out string
}

// result is what one run of one workload writes to -out.
type result struct {
	Workload  string             `json:"workload"`
	Trace     bool               `json:"trace"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Host      hostInfo           `json:"host"`
	Rows      map[string]row     `json:"rows"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	PhaseWall map[string]float64 `json:"phase_wall_s"`
	Budgets   []budget           `json:"budgets,omitempty"`
	// CrossChecks set the compiler phases as timed from outside beside the
	// same phases as core.ColdStart reports them (Compilation.Times).
	CrossChecks []crossCheck `json:"cross_checks,omitempty"`
}

var placeOpts = place.Options{Method: place.Heuristic}

// engineOpts is the engine configuration every row uses; only the worker
// count and the discipline vary.
func engineOpts(workers int, scr bool) dataplane.Options {
	return dataplane.Options{Workers: workers, SwitchWorkers: 2, Window: 256, StateReplication: scr}
}

// env is the generated input of one workload plus the result being filled.
type env struct {
	cfg config
	sp  *spec
	res *result
	rec *recorder

	topo   *topo.Topology
	ports  int
	tm     traffic.Matrix
	src    string
	policy syntax.Policy
	comp   *core.Compilation
	trace  []dataplane.Ingress
	// twin is the probe no edit blocks; twinWant what the semantics says it
	// delivers. probeU, probeV is its port pair.
	probeU, probeV int
	twin           []dataplane.Ingress
	twinWant       []string
}

func (e *env) fail(format string, args ...any) {
	e.res.Failed++
	if len(e.res.Failures) < 10 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf(format, args...))
	}
}

// scaled is a packet count: n in the benchmark, 1/200 of it (never below
// lo) in the tests.
func (e *env) scaled(n, lo int) int {
	if e.cfg.small {
		return max(lo, n/200)
	}
	return n
}

func (e *env) budget(share float64) time.Duration {
	return time.Duration(share * e.cfg.seconds * float64(time.Second))
}

// opCount scales a control-plane operation count from the reference window
// to -seconds.
func (e *env) opCount(n int) int {
	if e.cfg.small {
		return 1
	}
	return max(e.minTrials(), int(float64(n)*e.cfg.seconds/refSeconds))
}

// turn is a control-plane operation that runs n times.
type turn struct {
	n  int
	op func(i int) error
}

// turns runs each operation its n times, spread evenly over as many rounds
// as the largest n, in the order given within a round.
func turns(ts ...turn) error {
	rounds := 0
	for _, t := range ts {
		rounds = max(rounds, t.n)
	}
	for r := 0; r < rounds; r++ {
		for _, t := range ts {
			if i := r * t.n / rounds; i != (r+1)*t.n/rounds {
				if err := t.op(i); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// minTrials is the floor under every time box: three samples make a median,
// the smoke test only needs the code to run.
func (e *env) minTrials() int {
	if e.cfg.small {
		return 1
	}
	return 3
}

func (e *env) phase(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	e.res.PhaseWall[name] += time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// expect is what the semantics delivers for one packet on an empty store.
func (e *env) expect(p syntax.Policy, in dataplane.Ingress) ([]string, error) {
	o, err := newOracle(p, e.topo)
	if err != nil {
		return nil, err
	}
	return o.eval(in.Packet)
}

// setup generates every input from the seed, compiles the policy and warms a
// single-worker engine with one pass of the trace. It is everything that
// happens between process start and the first timed operation.
func (e *env) setup() (*dataplane.Engine, error) {
	t, err := e.sp.build(e.cfg.small)
	if err != nil {
		return nil, err
	}
	e.topo, e.ports = t, len(t.Ports)
	e.tm = traffic.Gravity(t, totalDemand, matrixSeed)
	e.trace = genTrace(e.tm, e.scaled(e.sp.packets, 512), hostsPerSubnet, e.sp.dns, e.cfg.seed)
	e.src = policySrc(e.sp.body, e.ports, 0)
	if e.policy, err = parser.ParseWith(e.src, parseOpts); err != nil {
		return nil, err
	}
	if e.comp, err = core.ColdStart(e.policy, t, e.tm, placeOpts); err != nil {
		return nil, err
	}
	e.probeU, e.probeV = probePair(t, e.cfg.seed)
	e.twin = probe(e.probeU, e.probeV, firstACLPort-1)
	if e.twinWant, err = e.expect(e.policy, e.twin[0]); err != nil {
		return nil, err
	}
	if len(e.twinWant) != 1 {
		return nil, fmt.Errorf("probe %d->%d: the semantics delivers %d copies, want 1", e.probeU, e.probeV, len(e.twinWant))
	}
	eng := dataplane.NewEngine(e.comp.Config, engineOpts(1, false))
	if err := eng.InjectReplay(e.trace); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// setupRounds is how many times set-up runs; setup_s is their median. One
// set-up is a single sample of a cost that includes a large allocation, and
// a single sample cannot carry a regression bound.
const setupRounds = 3

func (e *env) timedSetup(sinceStart time.Duration) (*dataplane.Engine, error) {
	rounds := setupRounds
	if e.cfg.trace || e.cfg.small {
		rounds = 1
	}
	var eng *dataplane.Engine
	var xs []float64
	for i := 0; i < rounds; i++ {
		if eng != nil {
			eng.Close()
		}
		start := time.Now()
		var err error
		if eng, err = e.setup(); err != nil {
			return nil, err
		}
		d := time.Since(start)
		if i == 0 {
			d += sinceStart // process start to here: runtime and flag set-up
		}
		xs = append(xs, d.Seconds())
	}
	e.res.Rows["setup_s"] = summarize("s", xs)
	return eng, nil
}

// checkConservation holds for every engine after every pass: the policies
// here never multicast, so each injected packet is delivered or dropped once.
func (e *env) checkConservation(label string, eng *dataplane.Engine) {
	if st := eng.Stats(); st.Injected != st.Delivered+st.Dropped {
		e.fail("%s: injected %d != delivered %d + dropped %d", label, st.Injected, st.Delivered, st.Dropped)
	}
}

// maxTrials bounds a packet phase on a host so fast the clock never would.
const maxTrials = 200

// lane is one row's repeated work: pass does it once and returns the sample,
// which rounds files under xs.
type lane struct {
	xs   *[]float64
	pass func() (float64, error)
}

// rounds runs every lane once per round until budget has elapsed. The rows of
// a phase are measured side by side rather than one after the other, because
// contention on a shared host comes in bursts of several seconds: a burst
// then reaches every row or none, each row's fastest round comes from the
// quietest stretch of the whole phase, and rows that are subtracted from one
// another were taken under the same conditions.
func (e *env) rounds(budget time.Duration, lanes ...lane) error {
	return timebox(budget, e.minTrials(), maxTrials, func(int) error {
		for _, l := range lanes {
			x, err := l.pass()
			if err != nil {
				return err
			}
			*l.xs = append(*l.xs, x)
		}
		return nil
	})
}

// perPacket times one pass over the whole trace and returns wall ns per
// packet.
func (e *env) perPacket(pass func() error) (float64, error) {
	start := time.Now()
	err := pass()
	e.res.Attempted += int64(len(e.trace))
	return float64(time.Since(start).Nanoseconds()) / float64(len(e.trace)), err
}

// streamLane is whole passes of the trace through a warm engine in stream
// mode: wall ns per injected packet, ingress to retirement.
func (e *env) streamLane(xs *[]float64, eng *dataplane.Engine) lane {
	return lane{xs, func() (float64, error) {
		return e.perPacket(func() error { return eng.InjectReplay(e.trace) })
	}}
}

// parRun is one parallel row: P = min(nproc, 4) workers under one
// discipline, on an engine of its own warmed by one pass.
type parRun struct {
	eng  *dataplane.Engine
	warm dataplane.Stats
	ns   []float64
}

func (e *env) newParRun(scr bool) (*parRun, error) {
	eng := dataplane.NewEngine(e.comp.Config, engineOpts(parWorkers(), scr))
	if err := e.parPass(eng); err != nil {
		eng.Close()
		return nil, err
	}
	return &parRun{eng: eng, warm: eng.Stats()}, nil
}

// parPass is one pass under GOMAXPROCS = P.
func (e *env) parPass(eng *dataplane.Engine) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(parWorkers()))
	return eng.InjectReplay(e.trace)
}

func (e *env) parLane(r *parRun) lane {
	return lane{&r.ns, func() (float64, error) {
		return e.perPacket(func() error { return e.parPass(r.eng) })
	}}
}

// timed is what the engine counted over the timed passes alone.
func (r *parRun) timed() dataplane.Stats {
	st := r.eng.Stats()
	st.LockSuspends -= r.warm.LockSuspends
	st.LockWaitNs -= r.warm.LockWaitNs
	st.Injected -= r.warm.Injected
	return st
}

func (e *env) parRow(r *parRun) row {
	out := fastest("ns", r.ns)
	valid := runtime.NumCPU() >= 4
	out.Valid = &valid
	out.Note = fmt.Sprintf("workers=%d numcpu=%d discipline=%s", parWorkers(), runtime.NumCPU(), r.eng.ExecMode())
	return out
}

// latencyWindow is how many single-packet round trips make one sample of the
// latency row: latency_p50_us is the p50 of the quietest window.
const latencyWindow = 8192

// latencyLane is the unloaded round trip: InjectBatch of one packet on an
// idle single-worker engine. One pass is one window; its sample is the
// window's p50 in µs, and every round trip is kept in raw for the tail.
func (e *env) latencyLane(p50s, raw *[]float64, eng *dataplane.Engine) lane {
	one := make([]dataplane.Ingress, 1)
	next := 0
	return lane{p50s, func() (float64, error) {
		n := e.scaled(latencyWindow, 64)
		lo := len(*raw)
		for i := 0; i < n; i++ {
			one[0] = e.trace[next%len(e.trace)]
			next++
			start := time.Now()
			_, err := eng.InjectBatch(one)
			*raw = append(*raw, us(time.Since(start)))
			if err != nil {
				return 0, err
			}
		}
		e.res.Attempted += int64(n)
		return median((*raw)[lo:]), nil
	}}
}

// checkProbe compares one probe's deliveries with the semantics' answer.
func (e *env) checkProbe(what string, got [][]dataplane.Delivery, want []string) {
	if !sameKeys(deliveryKeys(got[0]), want) {
		e.fail("%s: engine delivered %v, semantics says %v", what, deliveryKeys(got[0]), want)
	}
}

// coldOp is policy source text to first delivered packet: parse, compile
// cold, build the engine, deliver one probe. It also returns the compiler's
// own phase times, which the traced pass checks its outside timings against.
func (e *env) coldOp() (time.Duration, core.PhaseTimes, error) {
	runtime.GC()
	start := time.Now()
	pol, err := parser.ParseWith(e.src, parseOpts)
	if err != nil {
		return 0, core.PhaseTimes{}, err
	}
	comp, err := core.ColdStart(pol, e.topo, e.tm, placeOpts)
	if err != nil {
		return 0, core.PhaseTimes{}, err
	}
	eng := dataplane.NewEngine(comp.Config, engineOpts(1, false))
	defer eng.Close()
	out, err := eng.InjectBatch(e.twin)
	d := time.Since(start)
	if err != nil {
		return 0, core.PhaseTimes{}, err
	}
	e.res.Attempted++
	e.checkProbe("cold start probe", out, e.twinWant)
	return d, comp.Times, nil
}

// controlled is a live deployment the operator edits: an engine holding warm
// state and the lineage it runs. The end-to-end pass drives it through the
// controller; the traced pass calls the controller's steps itself.
type controlled struct {
	eng   *dataplane.Engine
	ctl   *ctrl.Controller
	comp  *core.Compilation
	edits int
}

func (e *env) newControlled(warm []dataplane.Ingress) (*controlled, error) {
	comp, err := core.ColdStart(e.policy, e.topo, e.tm, placeOpts)
	if err != nil {
		return nil, err
	}
	eng := dataplane.NewEngine(comp.Config, engineOpts(1, false))
	if err := eng.InjectReplay(warm); err != nil {
		eng.Close()
		return nil, err
	}
	// The probes' own state entries exist before any count is taken.
	for _, port := range []int{firstACLPort - 1, firstACLPort} {
		if _, err := eng.InjectBatch(probe(e.probeU, e.probeV, port)); err != nil {
			eng.Close()
			return nil, err
		}
	}
	eng.ResetObserved()
	// Every drifted window must trigger: two gravity matrices on six ports
	// can sit closer than the controller's default quarter of the mass.
	ctl := ctrl.New(comp, eng, ctrl.Options{Threshold: 0.01, MinSample: 1})
	return &controlled{eng: eng, comp: comp, ctl: ctl}, nil
}

// edit is the i-th live edit, prepared outside the timed region: the new
// policy, its two probes and what the semantics says each delivers.
type edit struct {
	policy                 syntax.Policy
	blocked, twin          []dataplane.Ingress
	blockedWant, twinWant  []string
	entriesBefore, aclPort int
}

func (e *env) prepareEdit(c *controlled) (edit, error) {
	ed := edit{aclPort: firstACLPort + c.edits, twin: e.twin}
	c.edits++
	var err error
	if ed.policy, err = parser.ParseWith(policySrc(e.sp.body, e.ports, ed.aclPort), parseOpts); err != nil {
		return ed, err
	}
	ed.blocked = probe(e.probeU, e.probeV, ed.aclPort)
	if ed.blockedWant, err = e.expect(ed.policy, ed.blocked[0]); err != nil {
		return ed, err
	}
	if ed.twinWant, err = e.expect(ed.policy, ed.twin[0]); err != nil {
		return ed, err
	}
	if len(ed.blockedWant) != 0 || len(ed.twinWant) != 1 {
		return ed, fmt.Errorf("edit %d: the semantics delivers %d blocked and %d twin copies, want 0 and 1", ed.aclPort, len(ed.blockedWant), len(ed.twinWant))
	}
	ed.entriesBefore = entryCount(c.eng.GlobalState())
	runtime.GC()
	return ed, nil
}

// checkSwap holds after every swap: no state entry is lost or invented.
func (e *env) checkSwap(what string, c *controlled, before int) {
	e.res.Attempted++
	if after := entryCount(c.eng.GlobalState()); after != before {
		e.fail("%s: %d state entries before the swap, %d after", what, before, after)
	}
}

// editOp is Controller.ApplyPolicy to the new plane being provably live: the
// probe the edit blocks returns nothing and its twin is delivered.
func (e *env) editOp(c *controlled) (time.Duration, error) {
	ed, err := e.prepareEdit(c)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.ctl.ApplyPolicy(ed.policy); err != nil {
		return 0, err
	}
	gotBlocked, err := c.eng.InjectBatch(ed.blocked)
	if err != nil {
		return 0, err
	}
	gotTwin, err := c.eng.InjectBatch(ed.twin)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	e.checkProbe("edit: blocked probe", gotBlocked, ed.blockedWant)
	e.checkProbe("edit: twin probe", gotTwin, ed.twinWant)
	e.checkSwap("edit", c, ed.entriesBefore)
	return d, nil
}

// drift feeds the deployment packets drawn from another matrix, untimed, so
// that the next Step sees a shifted observation. It returns the entry count
// the swap must preserve.
func (e *env) drift(c *controlled, i int) (int, error) {
	tm := traffic.Gravity(e.topo, totalDemand, 1000003*e.cfg.seed+int64(i)+2)
	// Plain flows only: DNS exchanges would add state entries with every
	// shift, and the swap a shift times would grow with its index.
	tr := genTrace(tm, e.scaled(shiftPackets, 64), hostsPerSubnet, false, e.cfg.seed+int64(i)+1)
	if err := c.eng.InjectReplay(tr); err != nil {
		return 0, err
	}
	before := entryCount(c.eng.GlobalState())
	runtime.GC()
	return before, nil
}

// shiftOp is Controller.Step (re-route, the paper's topology/TM-change
// scenario) on the drifted observation to the first probe delivered.
func (e *env) shiftOp(c *controlled, i int) (time.Duration, error) {
	before, err := e.drift(c, i)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	rec, err := c.ctl.Step()
	if err != nil {
		return 0, err
	}
	got, err := c.eng.InjectBatch(e.twin)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	if rec == nil {
		e.fail("shift %d: the controller saw no drift", i)
	}
	e.checkProbe("shift probe", got, e.twinWant)
	e.checkSwap("shift", c, before)
	return d, nil
}

// counts are the exact per-pass numbers of one pass of the trace from empty
// state. They move only when placement, routing or the policy does.
type counts struct {
	packets, visits, hops, suspends, dropped, entries int64
	evalNs                                            float64
}

// checkPass is the oracle check and the source of the exact counts. The
// first oraclePackets packets go one at a time through the semantics on a
// shadow store and, in chunks, through Engine.InjectBatch on a fresh
// single-worker engine, which runs them in order. Delivery sets (port and
// every field) and the final global state must be equal. The rest of the
// trace follows in stream mode.
func (e *env) checkPass() (counts, error) {
	var c counts
	o, err := newOracle(e.policy, e.topo)
	if err != nil {
		return c, err
	}
	eng := dataplane.NewEngine(e.comp.Config, engineOpts(1, false))
	defer eng.Close()
	k := min(e.scaled(e.sp.oracle, 256), len(e.trace))
	var evalTime time.Duration
	for lo := 0; lo < k; lo += 256 {
		chunk := e.trace[lo:min(lo+256, k)]
		got, err := eng.InjectBatch(chunk)
		if err != nil {
			return c, err
		}
		for i, ing := range chunk {
			start := time.Now()
			want, err := o.eval(ing.Packet)
			evalTime += time.Since(start)
			if err != nil {
				return c, err
			}
			e.res.Attempted++
			if !sameKeys(deliveryKeys(got[i]), want) {
				e.fail("packet %d: engine delivered %v, semantics says %v", lo+i, deliveryKeys(got[i]), want)
			}
		}
	}
	e.res.Attempted++
	if !eng.GlobalState().Equal(o.shadow) {
		e.fail("global state after %d packets differs from the semantics' store", k)
	}
	if err := eng.InjectReplay(e.trace[k:]); err != nil {
		return c, err
	}
	e.res.Attempted += int64(len(e.trace) - k)
	e.checkConservation("check pass", eng)
	st := eng.Stats()
	for _, l := range eng.Load() {
		c.visits += l.Processed
	}
	c.packets, c.hops, c.suspends, c.dropped = st.Injected, st.Hops, st.Suspends, st.Dropped
	c.entries = int64(entryCount(eng.GlobalState()))
	c.evalNs = float64(evalTime.Nanoseconds()) / float64(k)
	return c, nil
}

// warmPrefix copies the packets that warm a control-plane deployment, so
// that the full trace can be released before the control-plane phases: a
// collector that has to mark the whole trace is what put the tail on edit
// latency while sizing.
func (e *env) warmPrefix() []dataplane.Ingress {
	n := min(e.scaled(e.sp.warm, 256), len(e.trace))
	return append([]dataplane.Ingress(nil), e.trace[:n]...)
}

// runEndToEnd is the untraced pass: every end-to-end metric, nothing else.
func (e *env) runEndToEnd(sinceStart time.Duration) error {
	var eng *dataplane.Engine
	if err := e.phase("setup", func() (err error) {
		eng, err = e.timedSetup(sinceStart)
		return err
	}); err != nil {
		return err
	}
	defer eng.Close()

	if err := e.phase("packets", func() error {
		scr, err := e.newParRun(true)
		if err != nil {
			return err
		}
		defer scr.eng.Close()
		var stream, lat, latRaw []float64
		err = e.rounds(e.budget(e.sp.packetShare),
			e.streamLane(&stream, eng), e.latencyLane(&lat, &latRaw, eng), e.parLane(scr))
		e.checkConservation("stream and latency", eng)
		e.checkConservation("par_scr", scr.eng)
		e.res.Rows["ns_per_packet"] = fastest("ns", stream)
		e.res.Rows["latency_p50_us"] = fastest("us", lat)
		e.res.Rows["par_scr_ns_per_packet"] = e.parRow(scr)
		return err
	}); err != nil {
		return err
	}
	if err := e.phase("check", func() error {
		_, err := e.checkPass()
		return err
	}); err != nil {
		return err
	}

	warm := e.warmPrefix()
	e.trace = nil
	eng.Close()
	var c *controlled
	if err := e.phase("deploy", func() (err error) {
		c, err = e.newControlled(warm)
		return err
	}); err != nil {
		return err
	}
	defer c.eng.Close()
	// Cold starts and shifts take turns, for the reason rounds gives. Edits
	// come after both: every edit leaves the lineage's caches larger, and
	// nothing else should be timed on the heap the edits built.
	if err := e.phase("cold and shift", func() error {
		var cold, shift []float64
		err := turns(
			turn{e.opCount(e.sp.ops.cold), func(int) error {
				d, _, err := e.coldOp()
				cold = append(cold, ms(d))
				return err
			}},
			turn{e.opCount(e.sp.ops.shift), func(i int) error {
				d, err := e.shiftOp(c, i)
				shift = append(shift, ms(d))
				return err
			}})
		e.res.Rows["cold_to_packet_ms"] = fastest("ms", cold)
		e.res.Rows["shift_to_packet_ms"] = fastest("ms", shift)
		return err
	}); err != nil {
		return err
	}
	return e.phase("edit", func() error {
		var xs []float64
		for i := e.opCount(e.sp.ops.edit); i > 0; i-- {
			d, err := e.editOp(c)
			if err != nil {
				return err
			}
			xs = append(xs, ms(d))
		}
		e.res.Rows["edit_to_packet_ms"] = lowerQuartile("ms", xs)
		return nil
	})
}

// runWorkload runs one pass of one workload in this process.
func runWorkload(cfg config, sinceStart time.Duration) (*result, error) {
	sp, err := specByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, sp: sp, res: &result{
		Workload: cfg.workload, Trace: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Host: readHost(), Rows: map[string]row{}, PhaseWall: map[string]float64{},
	}}
	if cfg.trace {
		e.rec = newRecorder()
		err = e.runTraced(sinceStart)
	} else {
		err = e.runEndToEnd(sinceStart)
	}
	e.res.Host.LoadEnd = loadAvg1()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		if err := e.rec.write(filepath.Dir(cfg.out), cfg.workload); err != nil {
			return nil, err
		}
	}
	return e.res, nil
}
