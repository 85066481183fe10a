// The traced pass: every per-layer metric. Each layer is measured from
// outside, by timing calls into that module's public functions with a span
// around each call. The pass also takes a short untraced reference of every
// end-to-end figure in the same process, so that the layer budget can be
// reconciled against it and the cost of tracing is itself a number.
package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/deps"
	"snap/internal/netasm"
	"snap/internal/parser"
	"snap/internal/place"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/xfdd"
)

// budget is one reconciliation: layers measured apart against the figure
// measured whole. For a control-plane operation the whole is the traced
// operation itself (its root span), so the residual is the root's self time;
// Untraced is the same operation through the controller with tracing off.
type budget struct {
	Name     string       `json:"name"`
	Unit     string       `json:"unit"`
	Lines    []budgetLine `json:"lines"`
	Sum      float64      `json:"sum"`
	EndToEnd float64      `json:"end_to_end"`
	Untraced float64      `json:"untraced"`
	// Residual is (end to end − sum) / end to end.
	Residual float64 `json:"residual_share"`
}

type budgetLine struct {
	Layer string  `json:"layer"`
	Value float64 `json:"value"`
}

// crossCheck is one compiler phase timed twice: by the benchmark around the
// module's public function, and by the compiler around the same call.
type crossCheck struct {
	Metric    string  `json:"metric"`
	OutsideMs float64 `json:"outside_ms"`
	InsideMs  float64 `json:"compilation_times_ms"`
}

func newBudget(name, unit string, endToEnd, untraced float64, lines ...budgetLine) budget {
	b := budget{Name: name, Unit: unit, Lines: lines, EndToEnd: endToEnd, Untraced: untraced}
	for _, l := range lines {
		b.Sum += l.Value
	}
	if endToEnd != 0 {
		b.Residual = (endToEnd - b.Sum) / endToEnd
	}
	return b
}

// layerTimes accumulates per-layer durations over the traced operations of
// one kind, keyed by metric name.
type layerTimes map[string][]float64

func (lt layerTimes) row(name, unit string) row { return summarize(unit, lt[name]) }

// layerStep is one call into a layer: the span it is recorded as, and the
// key its duration (ms) is filed under.
type layerStep struct {
	key, span string
	fn        func() error
}

// probeKey files the probes' time; the row dataplane.probe_us is it in µs.
const probeKey = "dataplane.probe_ms"

// operation runs steps in order as the child spans of one new operation and
// returns the operation's own duration, root span to root span.
func (e *env) operation(name string, lt layerTimes, steps ...layerStep) (time.Duration, error) {
	op := e.rec.op(name)
	start := time.Now()
	for _, s := range steps {
		d, err := e.rec.call(s.span, op, s.fn)
		lt[s.key] = append(lt[s.key], ms(d))
		if err != nil {
			return 0, err
		}
	}
	total := time.Since(start)
	e.rec.end(op)
	return total, nil
}

// times multiplies every sample by f.
func times(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// tracedStreamLane is the stream pass with spans: one packet in 64 is an
// operation of its own, injected alone inside a span, and the 63 between two
// samples go in as one replay span. Counts are recorded at the same
// boundaries.
func (e *env) tracedStreamLane(xs *[]float64, eng *dataplane.Engine) lane {
	const every = 64
	n := len(e.trace)
	return lane{xs, func() (float64, error) {
		before := eng.Stats()
		ns, err := e.perPacket(func() error {
			for lo := 0; lo < n; lo += every {
				op := e.rec.op("packet")
				if _, err := e.rec.call("dataplane.Engine.InjectBatch", op, func() error {
					_, err := eng.InjectBatch(e.trace[lo : lo+1])
					return err
				}); err != nil {
					return err
				}
				e.rec.end(op)
				if lo+1 < n {
					bulk := e.rec.op("replay")
					if err := eng.InjectReplay(e.trace[lo+1 : min(lo+every, n)]); err != nil {
						return err
					}
					e.rec.end(bulk)
				}
			}
			return nil
		})
		after := eng.Stats()
		e.rec.count("dataplane.packets", after.Injected-before.Injected)
		e.rec.count("dataplane.hops", after.Hops-before.Hops)
		e.rec.count("dataplane.suspends", after.Suspends-before.Suspends)
		e.rec.count("dataplane.dropped", after.Dropped-before.Dropped)
		return ns, err
	}}
}

// sortedSwitches lists a configuration's switches in id order, so that
// anything done per switch is done in the same order every run.
func sortedSwitches(cfg *rules.Config) []topo.NodeID {
	ids := make([]topo.NodeID, 0, len(cfg.Switches))
	for id := range cfg.Switches {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// linkAll links every switch's program on its own, as netasm.Link is called
// without the engine's image cache, and returns the VMs and the summed time.
func (e *env) linkAll(cfg *rules.Config, op int) (map[topo.NodeID]*netasm.Switch, time.Duration) {
	vs := cfg.VarSpace()
	out := make(map[topo.NodeID]*netasm.Switch, len(cfg.Switches))
	var total time.Duration
	for _, id := range sortedSwitches(cfg) {
		sc := cfg.Switches[id]
		var lp *netasm.Linked
		d, _ := e.rec.call("netasm.Link", op, func() error {
			lp = netasm.Link(sc.Prog, vs, sc.Owns)
			return nil
		})
		total += d
		out[id] = netasm.NewLinkedSwitch(int(id), lp)
	}
	return out, total
}

// spanned wraps one pass of a lane in a root span of its own.
func (e *env) spanned(name string, pass func() error) func() error {
	return func() error {
		op := e.rec.op(name)
		err := pass()
		e.rec.end(op)
		return err
	}
}

// visitLane times Switch.RunAppend alone over the trace's ingress-switch
// visits: each packet enters the VM of the switch its port hangs off, as the
// plane would hand it over, and nothing follows the result. That is the visit
// that evaluates the policy; what a packet costs at the switches after it is
// inside dataplane.network_ns_per_packet and needs spans in the engine to
// separate. State a packet writes at an ingress switch that owns it stays in
// that VM's tables, which the pass made here warms. Samples are mean ns per
// visit.
func (e *env) visitLane(xs *[]float64, switches map[topo.NodeID]*netasm.Switch) (lane, error) {
	type visit struct {
		sw *netasm.Switch
		sp netasm.SimPacket
	}
	visits := make([]visit, len(e.trace))
	for i, ing := range e.trace {
		pt, ok := e.topo.PortByID(ing.Port)
		if !ok {
			return lane{}, fmt.Errorf("ingress visit: unknown port %d", ing.Port)
		}
		visits[i] = visit{switches[pt.Switch], netasm.SimPacket{Pkt: ing.Packet, Hdr: netasm.Header{
			OBSIn: ing.Port, OBSOut: -1, Node: e.comp.Config.RootID, Seq: -1, Phase: netasm.PhaseEval,
		}}}
	}
	var scratch []netasm.Result
	pass := func() error {
		for i := range visits {
			var err error
			if scratch, err = visits[i].sw.RunAppend(scratch[:0], visits[i].sp); err != nil {
				return err
			}
		}
		e.rec.count("netasm.visits", int64(len(visits)))
		return nil
	}
	return lane{xs, func() (float64, error) { return e.perPacket(e.spanned("visits", pass)) }}, pass()
}

// networkLane times the sequential walker: Network.Inject per packet, the
// ingress visit plus every later visit, forwarding lookup, delivery and
// accounting, with no engine around them. The pass made here warms it.
func (e *env) networkLane(xs *[]float64, net *dataplane.Network) (lane, error) {
	pass := func() error {
		for _, ing := range e.trace {
			if _, err := net.Inject(ing.Port, ing.Packet); err != nil {
				return err
			}
		}
		return nil
	}
	return lane{xs, func() (float64, error) { return e.perPacket(e.spanned("network", pass)) }}, pass()
}

// batchLane times InjectBatch in chunks of 256: the stream path plus
// collecting and sorting deliveries.
func (e *env) batchLane(xs *[]float64, eng *dataplane.Engine) lane {
	n := len(e.trace)
	return lane{xs, func() (float64, error) {
		return e.perPacket(func() error {
			for lo := 0; lo < n; lo += 256 {
				if _, err := eng.InjectBatch(e.trace[lo:min(lo+256, n)]); err != nil {
					return err
				}
			}
			return nil
		})
	}}
}

// allocPass reads the allocator around one stream pass.
func (e *env) allocPass(eng *dataplane.Engine) (allocs, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err = eng.InjectReplay(e.trace)
	runtime.ReadMemStats(&after)
	n := float64(len(e.trace))
	e.res.Attempted += int64(len(e.trace))
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n, err
}

// irSizes are the exact sizes of what each compiler pass hands the next.
type irSizes struct {
	nodes, leaves, pairs, programs, instrs int
}

func sizesOf(d *xfdd.Diagram, m *psmap.Mapping, cfg *rules.Config) irSizes {
	s := irSizes{nodes: d.Size(), pairs: len(m.Vars)}
	d.Leaves(func(*xfdd.Diagram) { s.leaves++ })
	seen := map[*netasm.Program]bool{}
	for _, sc := range cfg.Switches {
		if sc.Prog != nil && !seen[sc.Prog] {
			seen[sc.Prog] = true
			s.programs++
			s.instrs += len(sc.Prog.Instrs)
		}
	}
	return s
}

// coldTraced is the cold start with the benchmark calling each compiler
// phase itself, in the order core.ColdStart does, then building the engine
// and delivering the probe. Every call is a child span of the operation.
func (e *env) coldTraced(lt layerTimes) (time.Duration, irSizes, error) {
	runtime.GC()
	var (
		pol   syntax.Policy
		order *deps.Order
		d     *xfdd.Diagram
		m     *psmap.Mapping
		model *place.Model
		res   *place.Result
		cfg   *rules.Config
		eng   *dataplane.Engine
		out   [][]dataplane.Delivery
	)
	total, err := e.operation("cold", lt,
		layerStep{"parser.parse_ms", "parser.ParseWith", func() (err error) { pol, err = parser.ParseWith(e.src, parseOpts); return }},
		layerStep{"deps.p1_ms", "deps.OrderOf", func() error { order = deps.OrderOf(pol); return nil }},
		layerStep{"xfdd.p2_ms", "xfdd.TranslateWithOrder", func() (err error) { d, err = xfdd.TranslateWithOrder(pol, order); return }},
		layerStep{"psmap.p3_ms", "psmap.Build", func() error { m = psmap.Build(d, e.topo.PortIDs()); return nil }},
		layerStep{"place.p4_ms", "place.NewModel", func() error { model = place.NewModel(e.topo, e.tm, placeOpts); return nil }},
		layerStep{"place.p5_ms", "place.Model.SolveST", func() (err error) { res, err = model.SolveST(m, order); return }},
		layerStep{"rules.p6_ms", "rules.GenerateReplicated", func() (err error) {
			cfg, err = rules.GenerateReplicated(d, e.topo, res.Placement, res.Replicas, res.Routes)
			return
		}},
		layerStep{"dataplane.engine_build_ms", "dataplane.NewEngine", func() error {
			eng = dataplane.NewEngine(cfg, engineOpts(1, false))
			return nil
		}},
		layerStep{probeKey, "dataplane.Engine.InjectBatch", func() (err error) { out, err = eng.InjectBatch(e.twin); return }},
	)
	if eng != nil {
		eng.Close()
	}
	if err != nil {
		return 0, irSizes{}, err
	}
	e.res.Attempted++
	e.checkProbe("traced cold start probe", out, e.twinWant)
	return total, sizesOf(d, m, cfg), nil
}

// editTraced is the live edit with the benchmark calling the controller's
// steps itself: recompile through the delta caches, plan the migration, swap,
// probe. The phase times inside the recompile come from its own report.
func (e *env) editTraced(c *controlled, lt layerTimes) (time.Duration, *core.Compilation, error) {
	ed, err := e.prepareEdit(c)
	if err != nil {
		return 0, nil, err
	}
	var next *core.Compilation
	var plan ctrl.Plan
	var gotBlocked, gotTwin [][]dataplane.Delivery
	total, err := e.operation("edit", lt,
		layerStep{"core.edit_compile_ms", "core.Compilation.PolicyChange", func() (err error) { next, err = c.comp.PolicyChange(ed.policy); return }},
		layerStep{"ctrl.plan_ms", "ctrl.PlanMigration", func() error {
			plan = ctrl.PlanMigration(c.comp.Config, next.Config, nil, nil)
			return nil
		}},
		layerStep{"dataplane.swap_ms", "dataplane.Engine.ApplyConfig", func() error { return c.eng.ApplyConfig(next.Config, plan.Rewrite()) }},
		layerStep{probeKey, "dataplane.Engine.InjectBatch", func() (err error) {
			if gotBlocked, err = c.eng.InjectBatch(ed.blocked); err != nil {
				return
			}
			gotTwin, err = c.eng.InjectBatch(ed.twin)
			return
		}},
	)
	if err != nil {
		return 0, nil, err
	}
	c.comp = next
	lt["xfdd.edit_p2_ms"] = append(lt["xfdd.edit_p2_ms"], ms(next.Times.P2XFDD))
	lt["place.edit_p5_ms"] = append(lt["place.edit_p5_ms"], ms(next.Times.P5Solve))
	lt["rules.edit_p6_ms"] = append(lt["rules.edit_p6_ms"], ms(next.Times.P6Rules))
	e.checkProbe("traced edit: blocked probe", gotBlocked, ed.blockedWant)
	e.checkProbe("traced edit: twin probe", gotTwin, ed.twinWant)
	e.checkSwap("traced edit", c, ed.entriesBefore)
	return total, next, nil
}

// shiftTraced is Controller.Step taken apart: read the observed matrix, keep
// its routable pairs at the reference volume, re-route (P5-TE, P6), plan,
// swap, probe.
func (e *env) shiftTraced(c *controlled, i int, lt layerTimes) (time.Duration, int, error) {
	before, err := e.drift(c, i)
	if err != nil {
		return 0, 0, err
	}
	var demands traffic.Matrix
	var next *core.Compilation
	var plan ctrl.Plan
	var got [][]dataplane.Delivery
	total, err := e.operation("shift", lt,
		layerStep{"ctrl.shift_observe_ms", "dataplane.Engine.ObservedMatrix", func() error {
			demands = c.eng.ObservedMatrix().Restrict(e.topo)
			if demands.Total() <= 0 {
				return fmt.Errorf("shift %d: no routable demand observed", i)
			}
			demands = demands.Scale(c.comp.Demands.Total() / demands.Total())
			return nil
		}},
		layerStep{"core.shift_compile_ms", "core.Compilation.TopoTMChange", func() (err error) { next, err = c.comp.TopoTMChange(demands); return }},
		layerStep{"ctrl.plan_ms", "ctrl.PlanMigration", func() error {
			plan = ctrl.PlanMigration(c.comp.Config, next.Config, nil, nil)
			return nil
		}},
		layerStep{"dataplane.shift_swap_ms", "dataplane.Engine.ApplyConfig", func() error { return c.eng.ApplyConfig(next.Config, plan.Rewrite()) }},
		layerStep{probeKey, "dataplane.Engine.InjectBatch", func() (err error) { got, err = c.eng.InjectBatch(e.twin); return }},
	)
	if err != nil {
		return 0, 0, err
	}
	c.comp = next
	c.eng.ResetObserved()
	lt["place.shift_p5_ms"] = append(lt["place.shift_p5_ms"], ms(next.Times.P5Solve))
	lt["rules.shift_p6_ms"] = append(lt["rules.shift_p6_ms"], ms(next.Times.P6Rules))
	e.checkProbe("traced shift probe", got, e.twinWant)
	e.checkSwap("traced shift", c, before)
	return total, len(plan.Moves), nil
}

func share(part, whole int) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func p90(xs []float64) float64 { return quantile(sortedCopy(xs), 0.9) }

// budgetLines turns measured rows into budget lines, medians as values.
func (e *env) budgetLines(metrics ...string) []budgetLine {
	lines := make([]budgetLine, len(metrics))
	for i, m := range metrics {
		lines[i] = budgetLine{m, e.res.Rows[m].Median}
	}
	return lines
}

// countRows files the exact counts of the check pass.
func (e *env) countRows(c counts) {
	rows, pk := e.res.Rows, float64(c.packets)
	visits := float64(c.visits) / pk
	rows["dataplane.visits_per_packet"] = exact("count", visits)
	rows["dataplane.hops_per_packet"] = exact("count", float64(c.hops)/pk)
	rows["dataplane.suspends_per_packet"] = exact("count", float64(c.suspends)/pk)
	rows["dataplane.drop_share"] = exact("share", float64(c.dropped)/pk)
	rows["state.entries"] = exact("count", float64(c.entries))
	rows["semantics.eval_ns"] = exact("ns", c.evalNs)
}

// packetLayers takes the packet path apart: the ingress visit, the
// sequential walker around it, the engine around that, then collection, the
// unloaded tail, the allocator and the two parallel disciplines. Every row is
// a lane of the same rounds, so the differences between them are differences
// between passes taken seconds apart.
func (e *env) packetLayers(eng *dataplane.Engine) error {
	rows := e.res.Rows
	var stream, traced, batch, lat, latRaw, network, visit []float64
	net := dataplane.New(e.comp.Config)
	netLane, err := e.networkLane(&network, net)
	if err != nil {
		return err
	}
	linkOp := e.rec.op("link")
	switches, linkTime := e.linkAll(e.comp.Config, linkOp)
	e.rec.end(linkOp)
	visitLane, err := e.visitLane(&visit, switches)
	if err != nil {
		return err
	}
	locks, err := e.newParRun(false)
	if err != nil {
		return err
	}
	defer locks.eng.Close()
	scr, err := e.newParRun(true)
	if err != nil {
		return err
	}
	defer scr.eng.Close()
	if err := e.rounds(e.budget(tracedPacketShare),
		e.streamLane(&stream, eng), e.tracedStreamLane(&traced, eng), e.batchLane(&batch, eng),
		e.latencyLane(&lat, &latRaw, eng), netLane, visitLane, e.parLane(locks), e.parLane(scr)); err != nil {
		return err
	}
	e.checkConservation("stream, batch and latency", eng)
	e.checkConservation("par_locks", locks.eng)
	e.checkConservation("par_scr", scr.eng)
	if st := net.Stats(); st.Injected != st.Delivered+st.Dropped {
		e.fail("network: injected %d != delivered %d + dropped %d", st.Injected, st.Delivered, st.Dropped)
	}
	allocs, bytes, err := e.allocPass(eng)
	if err != nil {
		return err
	}

	nsPkt, netNs, visitNs := median(stream), median(network), median(visit)
	rows["netasm.visit_ns"] = summarize("ns", visit)
	rows["netasm.link_ms"] = exact("ms", ms(linkTime))
	rows["dataplane.network_ns_per_packet"] = summarize("ns", network)
	rows["dataplane.walk_self_ns"] = exact("ns", netNs-visitNs)
	rows["dataplane.engine_self_ns"] = exact("ns", nsPkt-netNs)
	rows["dataplane.batch_ns_per_packet"] = summarize("ns", batch)
	rows["dataplane.collect_self_ns"] = exact("ns", median(batch)-nsPkt)
	rows["dataplane.latency_p99_us"] = exact("us", quantile(sortedCopy(latRaw), 0.99))
	rows["dataplane.allocs_per_packet"] = exact("count", allocs)
	rows["dataplane.bytes_per_packet"] = exact("B", bytes)
	lockStats, lockNs := locks.timed(), 0.0
	for _, x := range locks.ns {
		lockNs += x * float64(len(e.trace))
	}
	rows["dataplane.par_locks_ns_per_packet"] = e.parRow(locks)
	rows["dataplane.lock_suspends_per_kpkt"] = exact("count", 1000*float64(lockStats.LockSuspends)/float64(lockStats.Injected))
	rows["dataplane.lock_wait_share"] = exact("share", float64(lockStats.LockWaitNs)/(lockNs*float64(parWorkers())))
	rows["dataplane.par_locks_speedup"] = exact("x", nsPkt/median(locks.ns))
	rows["dataplane.par_scr_speedup"] = exact("x", nsPkt/median(scr.ns))
	linked := 0.0
	if scr.eng.ExecMode() == dataplane.ModeReplication {
		linked = 1
	}
	rows["dataplane.scr_linked"] = exact("count", linked)
	rows["trace.overhead_share"] = exact("share", median(traced)/nsPkt-1)
	e.res.Budgets = append(e.res.Budgets, newBudget("ns_per_packet", "ns", nsPkt, nsPkt,
		budgetLine{"netasm.visit_ns (one ingress visit a packet)", visitNs},
		budgetLine{"dataplane.walk_self_ns", netNs - visitNs},
		budgetLine{"dataplane.engine_self_ns", nsPkt - netNs}))
	return nil
}

// tracedPacketShare is the fraction of -seconds the traced pass gives the
// packet rows.
const tracedPacketShare = 0.45

// The control-plane layers alternate an untraced operation, which is the
// reference the budget reconciles against, with a traced one, so that both
// see the same heap and the same caches. Each kind runs a third of the
// operations the end-to-end pass runs (half for edits, whose two deployments
// then hold together what the one of the end-to-end pass holds).

// alternate runs ref and traced n times each, in turn, and returns ref's ms.
func alternate(n int, ref func(i int) (time.Duration, error), traced func(i int) error) ([]float64, error) {
	refs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := ref(i)
		if err != nil {
			return refs, err
		}
		refs = append(refs, ms(d))
		if err := traced(i); err != nil {
			return refs, err
		}
	}
	return refs, nil
}

func (e *env) coldLayers() error {
	rows, lt := e.res.Rows, layerTimes{}
	var sizes irSizes
	var whole []float64
	inside := layerTimes{}
	ref, err := alternate(e.opCount(e.sp.ops.cold/3),
		func(int) (time.Duration, error) {
			d, t, err := e.coldOp()
			for m, v := range map[string]time.Duration{
				"deps.p1_ms": t.P1Deps, "xfdd.p2_ms": t.P2XFDD, "psmap.p3_ms": t.P3Map,
				"place.p4_ms": t.P4Model, "place.p5_ms": t.P5Solve, "rules.p6_ms": t.P6Rules,
			} {
				inside[m] = append(inside[m], ms(v))
			}
			return d, err
		},
		func(int) error {
			d, s, err := e.coldTraced(lt)
			whole, sizes = append(whole, ms(d)), s
			return err
		})
	if err != nil {
		return err
	}
	phases := []string{"parser.parse_ms", "deps.p1_ms", "xfdd.p2_ms", "psmap.p3_ms", "place.p4_ms", "place.p5_ms", "rules.p6_ms", "dataplane.engine_build_ms"}
	for _, m := range phases {
		rows[m] = lt.row(m, "ms")
		if in, ok := inside[m]; ok {
			e.res.CrossChecks = append(e.res.CrossChecks, crossCheck{m, rows[m].Median, median(in)})
		}
	}
	rows["ctrl.cold_to_packet_p90_ms"] = exact("ms", p90(ref))
	rows["xfdd.nodes"] = exact("count", float64(sizes.nodes))
	rows["xfdd.leaves"] = exact("count", float64(sizes.leaves))
	rows["psmap.pairs"] = exact("count", float64(sizes.pairs))
	rows["rules.programs_distinct"] = exact("count", float64(sizes.programs))
	rows["rules.instrs_total"] = exact("count", float64(sizes.instrs))
	rows["netasm.instrs_per_program"] = exact("count", share(sizes.instrs, sizes.programs))
	lines := append(e.budgetLines(phases...), budgetLine{"dataplane: probe", median(lt[probeKey])})
	e.res.Budgets = append(e.res.Budgets, newBudget("cold_to_packet_ms", "ms", median(whole), median(ref), lines...))
	return nil
}

func (e *env) editLayers(ref, man *controlled) error {
	rows, lt := e.res.Rows, layerTimes{}
	var first *core.Compilation
	var whole []float64
	refs, err := alternate(e.opCount(e.sp.ops.edit/2),
		func(int) (time.Duration, error) { return e.editOp(ref) },
		func(int) error {
			d, next, err := e.editTraced(man, lt)
			whole = append(whole, ms(d))
			if first == nil {
				first = next
			}
			return err
		})
	if err != nil {
		return err
	}
	for _, m := range []string{"core.edit_compile_ms", "ctrl.plan_ms", "dataplane.swap_ms", "xfdd.edit_p2_ms", "place.edit_p5_ms", "rules.edit_p6_ms"} {
		rows[m] = lt.row(m, "ms")
	}
	rows["dataplane.probe_us"] = summarize("us", times(lt[probeKey], 1000))
	rows["ctrl.edit_to_packet_p90_ms"] = exact("ms", p90(refs))
	// The reuse shares are those of the first edit: useful outcomes over
	// attempts for each reuse layer, exact under one seed.
	rep := first.Delta
	rows["xfdd.edit_reused_node_share"] = exact("share", share(rep.ReusedNodes, rep.ReusedNodes+rep.FreshNodes))
	rows["place.edit_pinned_group_share"] = exact("share", share(rep.PinnedGroups, rep.PinnedGroups+rep.MovedGroups))
	rows["rules.edit_reused_program_share"] = exact("share", share(rep.ReusedPrograms, rep.ReusedPrograms+rep.CompiledPrograms))
	rows["rules.edit_dirty_switch_share"] = exact("share", share(len(rep.DirtySwitches), e.topo.Switches))
	lines := append(e.budgetLines("core.edit_compile_ms", "ctrl.plan_ms", "dataplane.swap_ms"),
		budgetLine{"dataplane: probe", median(lt[probeKey])})
	e.res.Budgets = append(e.res.Budgets, newBudget("edit_to_packet_ms", "ms", median(whole), median(refs), lines...))
	return nil
}

func (e *env) shiftLayers(ref, man *controlled) error {
	rows, lt := e.res.Rows, layerTimes{}
	moves := -1
	var whole []float64
	refs, err := alternate(e.opCount(e.sp.ops.shift/3),
		func(i int) (time.Duration, error) { return e.shiftOp(ref, i) },
		func(i int) error {
			d, mv, err := e.shiftTraced(man, i, lt)
			whole = append(whole, ms(d))
			if moves < 0 {
				moves = mv
			}
			return err
		})
	if err != nil {
		return err
	}
	for _, m := range []string{"place.shift_p5_ms", "rules.shift_p6_ms", "dataplane.shift_swap_ms"} {
		rows[m] = lt.row(m, "ms")
	}
	rows["ctrl.shift_moves"] = exact("count", float64(moves))
	e.res.Budgets = append(e.res.Budgets, newBudget("shift_to_packet_ms", "ms", median(whole), median(refs),
		budgetLine{"ctrl: observed matrix", median(lt["ctrl.shift_observe_ms"])},
		budgetLine{"core: re-route (P5-TE + P6)", median(lt["core.shift_compile_ms"])},
		budgetLine{"ctrl: plan", median(lt["ctrl.plan_ms"])},
		budgetLine{"dataplane.shift_swap_ms", rows["dataplane.shift_swap_ms"].Median},
		budgetLine{"dataplane: probe", median(lt[probeKey])}))
	return nil
}

// runTraced is the traced pass. None of its numbers carries a bound; every
// layer gets at least three samples.
func (e *env) runTraced(sinceStart time.Duration) error {
	var eng *dataplane.Engine
	if err := e.phase("setup", func() (err error) {
		eng, err = e.timedSetup(sinceStart)
		return err
	}); err != nil {
		return err
	}
	defer eng.Close()
	delete(e.res.Rows, "setup_s") // one round only: not the metric

	var cnt counts
	if err := e.phase("check", func() (err error) {
		cnt, err = e.checkPass()
		return err
	}); err != nil {
		return err
	}
	e.countRows(cnt)
	if err := e.phase("packet layers", func() error { return e.packetLayers(eng) }); err != nil {
		return err
	}

	warm := e.warmPrefix()
	e.trace = nil
	eng.Close()
	if err := e.phase("cold layers", e.coldLayers); err != nil {
		return err
	}
	var ref, man *controlled
	if err := e.phase("deploy", func() (err error) {
		if ref, err = e.newControlled(warm); err != nil {
			return err
		}
		if man, err = e.newControlled(warm); err != nil {
			ref.eng.Close()
		}
		return err
	}); err != nil {
		return err
	}
	defer ref.eng.Close()
	defer man.eng.Close()
	if err := e.phase("shift layers", func() error { return e.shiftLayers(ref, man) }); err != nil {
		return err
	}
	if err := e.phase("edit layers", func() error { return e.editLayers(ref, man) }); err != nil {
		return err
	}

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	e.res.Rows["runtime.gc_share"] = exact("share", mem.GCCPUFraction)
	e.res.Rows["runtime.peak_heap_mb"] = exact("MB", float64(mem.HeapSys)/(1<<20))
	return nil
}
