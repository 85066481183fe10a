// Delta compilation (the incremental policy-change path). A Compilation
// lineage carries a deltaState: per-test-order translators whose fragment
// memos and hash-consing stores persist across edits, a recall of the last
// two packet-state mappings, and a rule generator with a pointer-stable
// program cache. PolicyChange diffs the old and new policy
// ASTs, derives the set of state variables the edit can have touched, and
// runs every phase in delta mode: unchanged fragments reuse their
// interned subdiagrams, clean variables keep their placement, and only
// switches whose configuration actually changed are reported dirty to the
// controller.
//
// Invariants the delta path relies on (see docs/ARCHITECTURE.md):
//
//   - dirty-set soundness: a variable mentioned by no changed fragment
//     has identical read/write sites in both policies, so keeping its
//     placement can only cost optimization quality, never correctness;
//     the full mapping and solve still run, so routes and rules always
//     reflect the new policy exactly.
//   - translator reuse requires an identical test order: translators are
//     keyed by the order signature, and an edit that changes the state
//     variable set gets a fresh translator (no reuse, still correct). The
//     lineage keeps the translator in use and the one before it, so an edit
//     and its revert both stay warm while the stores of older variable sets
//     are released.
//   - program reuse requires pointer identity of the diagram root, which
//     hash-consing provides within one translator store.
package core

import (
	"slices"
	"sort"
	"strings"

	"snap/internal/deps"
	"snap/internal/psmap"
	"snap/internal/rules"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/xfdd"
)

// DeltaReport describes how a PolicyChange was compiled: which path it
// took and how much prior work it reused.
type DeltaReport struct {
	// Scenario is the Compilation's own label: "noop" (structurally
	// identical policy, everything reused), "delta" (incremental path), or
	// "policy_cold" (ColdPolicy fallback).
	Scenario string
	// DirtyVars lists the state variables the edit may have affected
	// (union of the changed fragments' variable sets), sorted.
	DirtyVars []string
	// ReusedNodes and FreshNodes split the new diagram's unique nodes
	// into those that existed in the translator's store before the edit
	// and those the edit minted.
	ReusedNodes, FreshNodes int
	// PinnedGroups and MovedGroups report the warm-started placement
	// split (zero when the solve fell back to a full run).
	PinnedGroups, MovedGroups int
	// ReusedPrograms and CompiledPrograms count distinct per-switch
	// NetASM programs recalled from the generator cache vs compiled.
	ReusedPrograms, CompiledPrograms int
	// DirtySwitches lists the switches whose data-plane configuration
	// changed; the controller only needs to disturb these.
	DirtySwitches []topo.NodeID
	// Contexts, ApplyHits and ApplyMisses are the translator store's exact
	// work counters diffed across the edit's P2: composition contexts
	// minted, and lookups of the ⊕/⊙/seqAS apply caches that found their
	// subproblem solved or had to solve it. Unlike the phase times they
	// repeat exactly, so a test can gate on them.
	Contexts, ApplyHits, ApplyMisses uint64
}

// deltaState is the persistent cache bundle shared along a Compilation
// lineage (ColdStart and every recompilation derived from it).
type deltaState struct {
	// translators holds at most two entries: the translator of sig, the
	// test-order signature last compiled, and of the signature before it.
	translators map[string]*xfdd.Translator
	sig         string
	// mappings are the last two P3 results, most recent first (see mapping).
	mappings [2]recalledMapping
	gen      *rules.Generator
}

// recalledMapping is one P3 result with the inputs it is a function of: a
// diagram root and a sorted OBS port set.
type recalledMapping struct {
	root    *xfdd.Diagram
	ports   []int
	mapping *psmap.Mapping
}

func newDeltaState() *deltaState {
	return &deltaState{
		translators: map[string]*xfdd.Translator{},
		gen:         rules.NewGenerator(),
	}
}

// mapping is the lineage's P3: the packet-state mapping of d over ports
// (sorted, as Topology.PortIDs returns them). A mapping is a pure function
// of the two, and hash-consed roots make pointer identity structural
// identity, so an edit's revert and a failover's restore, which come back
// to a root and port set compiled just before, recall its mapping instead
// of walking the diagram. The returned Mapping is shared: callers treat it
// as immutable, as every consumer does.
func (ds *deltaState) mapping(d *xfdd.Diagram, ports []int) *psmap.Mapping {
	for i, r := range ds.mappings {
		if r.root == d && slices.Equal(r.ports, ports) {
			ds.mappings[0], ds.mappings[i] = r, ds.mappings[0]
			return r.mapping
		}
	}
	m := psmap.Build(d, ports)
	ds.mappings = [2]recalledMapping{{root: d, ports: ports, mapping: m}, ds.mappings[0]}
	return m
}

// translator returns the lineage's translator for a test order. Reusing a
// translator across orders would be unsound (the memo bakes in the test
// order), so the signature is the full ordered variable list. A signature
// other than the last one's displaces every translator but the last one's;
// a displaced signature that comes back gets a fresh translator.
func (ds *deltaState) translator(order *deps.Order) *xfdd.Translator {
	sig := strings.Join(order.Vars, "\x00")
	tr := ds.translators[sig]
	if tr != nil && sig == ds.sig {
		return tr
	}
	if tr == nil {
		tr = xfdd.NewTranslator(order)
	}
	kept := map[string]*xfdd.Translator{sig: tr}
	if prev := ds.translators[ds.sig]; prev != nil {
		kept[ds.sig] = prev
	}
	ds.translators, ds.sig = kept, sig
	return tr
}

// translate is the lineage's P2: the memoized translation of p under order.
// With a report to fill (a policy edit, not the cold start) it also splits
// the diagram's nodes into reused and fresh, and diffs the store's exact
// work counters across the translation.
func (ds *deltaState) translate(p syntax.Policy, order *deps.Order, rep *DeltaReport) (*xfdd.Diagram, error) {
	tr := ds.translator(order)
	mark, before := tr.Store().Watermark(), tr.Store().ApplyStats()
	d, err := tr.TranslateMemo(p)
	if err != nil || rep == nil {
		return d, err
	}
	rep.ReusedNodes, rep.FreshNodes = xfdd.ReuseOf(d, mark)
	after := tr.Store().ApplyStats()
	rep.Contexts = after.Contexts - before.Contexts
	rep.ApplyHits, rep.ApplyMisses = after.Hits-before.Hits, after.Misses-before.Misses
	return d, nil
}

// dirtyVars computes the sorted union of state variables mentioned by any
// changed fragment of the diff — the set of variables whose read/write
// sites the edit can possibly have altered.
func dirtyVars(diff *syntax.Diff) ([]string, map[string]bool) {
	set := map[string]bool{}
	for _, frag := range diff.Changed() {
		for _, v := range deps.Vars(frag) {
			set[v] = true
		}
	}
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out, set
}
