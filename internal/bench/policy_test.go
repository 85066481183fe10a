package bench

import (
	"runtime"
	"testing"
	"time"

	"snap/internal/core"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
)

// TestPolicyChangeBeatsColdStart is the delta-compilation acceptance gate:
// on every Table 5 topology the incremental PolicyChange of the canonical
// single-fragment edit must finish faster than a cold start of the same
// edited policy. Cold start includes P4 model construction, which the delta
// path reuses outright, so the margin is structural rather than noise-bound;
// each side still takes the best of a few trials to shrug off scheduler
// jitter. Timing only edit #1 on a fresh lineage once let a delta path that
// was twice as slow as cold from edit #2 onward pass, so on Stanford the
// gate also times edit #8 of one lineage against a cold start of the same
// policy, and bounds what eight edits retain.
// Skipped under -short (the CI fast lane); CI runs it explicitly.
// gateTrials is higher than the reporting benchmark's trial count because
// this test gates CI: best-of-5 makes a one-off scheduler stall on either
// side vanishingly unlikely to flip the comparison.
const gateTrials = 5

func TestPolicyChangeBeatsColdStart(t *testing.T) {
	if testing.Short() {
		t.Skip("delta-vs-cold timing gate runs in its own CI step")
	}
	s := CI
	for _, spec := range topo.Table5() {
		tp, err := topo.Named(spec.Name, s.Capacity, s.PortScale)
		if err != nil {
			t.Fatal(err)
		}
		ports := len(tp.Ports)
		policy := dnsTunnelPolicy(ports)
		edited := dnsTunnelPolicyEdited(ports)
		tm := traffic.Gravity(tp, s.Traffic, 1)

		// One untimed round first: the opening compile of a topology pays
		// first-touch costs (page faults, branch warmup) that would otherwise
		// land on whichever path runs first.
		if warm, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic}); err != nil {
			t.Fatal(err)
		} else if _, err := warm.PolicyChange(edited); err != nil {
			t.Fatal(err)
		}

		var deltaBest, coldBest time.Duration
		for i := 0; i < gateTrials; i++ {
			base, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic})
			if err != nil {
				t.Fatal(err)
			}
			deltaRun, err := base.PolicyChange(edited)
			if err != nil {
				t.Fatal(err)
			}
			coldRun, err := core.ColdStart(edited, tp, tm, place.Options{Method: place.Heuristic})
			if err != nil {
				t.Fatal(err)
			}
			if d := deltaRun.Times.Total(); i == 0 || d < deltaBest {
				deltaBest = d
			}
			if c := coldRun.Times.Total(); i == 0 || c < coldBest {
				coldBest = c
			}
			if i == 0 && deltaRun.Delta.Scenario != "delta" {
				t.Fatalf("%s: expected delta path, got %q", spec.Name, deltaRun.Delta.Scenario)
			}
		}
		if deltaBest >= coldBest {
			t.Errorf("%s: PolicyChange (%v) not faster than ColdStart (%v)", spec.Name, deltaBest, coldBest)
		} else {
			t.Logf("%s: PolicyChange %v vs ColdStart %v (%.1fx)", spec.Name, deltaBest, coldBest, float64(coldBest)/float64(deltaBest))
		}
	}
	t.Run("Stanford/edit8", lateEditBeatsColdStart)
}

// stanfordHalf is the benchmark's ctl-enterprise network: Stanford at half
// its ports under the Table 6 policy.
func stanfordHalf(t *testing.T) (*topo.Topology, traffic.Matrix) {
	t.Helper()
	tp, err := topo.Named("Stanford", CI.Capacity, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return tp, traffic.Gravity(tp, CI.Traffic, 1)
}

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// lateEditBeatsColdStart times the eighth edit of one lineage, each edit a
// distinct ACL so none replays the fragment memo, against a cold start of
// the same policy (same process, best of gateTrials), and requires the live
// heap after edit #8 to stay within twice the live heap after edit #1.
func lateEditBeatsColdStart(t *testing.T) {
	tp, tm := stanfordHalf(t)
	ports := len(tp.Ports)
	opts := place.Options{Method: place.Heuristic}
	edit := func(i int) syntax.Policy { return dnsTunnelPolicyWith(ports, aclOn(int64(7000+i))) }

	var deltaBest, coldBest time.Duration
	var heap1, heap8 uint64
	for trial := 0; trial < gateTrials; trial++ {
		c, err := core.ColdStart(dnsTunnelPolicy(ports), tp, tm, opts)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 8; i++ {
			if c, err = c.PolicyChange(edit(i)); err != nil {
				t.Fatal(err)
			}
			if c.Delta.Scenario != "delta" {
				t.Fatalf("edit %d took the %q path", i, c.Delta.Scenario)
			}
			if trial == 0 && (i == 1 || i == 8) {
				h := liveHeap()
				if i == 1 {
					heap1 = h
				} else {
					heap8 = h
				}
			}
		}
		coldRun, err := core.ColdStart(edit(8), tp, tm, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := c.Times.Total(); trial == 0 || d < deltaBest {
			deltaBest = d
		}
		if d := coldRun.Times.Total(); trial == 0 || d < coldBest {
			coldBest = d
		}
		runtime.KeepAlive(c)
	}
	if deltaBest >= coldBest {
		t.Errorf("edit #8 (%v) not faster than a cold start of the same policy (%v)", deltaBest, coldBest)
	}
	if heap8 > 2*heap1 {
		t.Errorf("live heap after edit #8 is %d MB, more than twice the %d MB after edit #1", heap8>>20, heap1>>20)
	}
	t.Logf("edit #8 %v vs cold %v (%.1fx); live heap %d MB after edit #1, %d MB after edit #8",
		deltaBest, coldBest, float64(coldBest)/float64(deltaBest), heap1>>20, heap8>>20)
}

// TestPolicyEditContextCount gates the work an edit does, by a count that
// repeats exactly: one stateless ACL edit of the Table 6 policy on Stanford
// at half its ports may mint at most 2 000 composition contexts. Keyed by
// context path instead of by what the operands read, the same edit minted
// 32 852.
func TestPolicyEditContextCount(t *testing.T) {
	tp, tm := stanfordHalf(t)
	ports := len(tp.Ports)
	c, err := core.ColdStart(dnsTunnelPolicy(ports), tp, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	next, err := c.PolicyChange(dnsTunnelPolicyEdited(ports))
	if err != nil {
		t.Fatal(err)
	}
	rep := next.Delta
	if rep.Contexts == 0 || rep.Contexts > 2000 {
		t.Errorf("edit minted %d contexts, want 1..2000", rep.Contexts)
	}
	if rep.ApplyHits+rep.ApplyMisses == 0 {
		t.Error("edit reported no apply-cache lookups")
	}
	t.Logf("contexts=%d apply hits=%d misses=%d", rep.Contexts, rep.ApplyHits, rep.ApplyMisses)
}

// TestColdStartAllocs gates what one cold start allocates on the 120-switch
// IGen WAN under the DNS-tunnel policy: at most 120 000 objects. Building a
// route with a map per pair and per splice, and copying a field's whole
// failed-test list on every false edge, allocated about 198 000.
func TestColdStartAllocs(t *testing.T) {
	tp, err := topo.NewIGen(120, CI.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	policy := dnsTunnelPolicy(len(tp.Ports))
	tm := traffic.Gravity(tp, CI.Traffic, 1)
	cold := func() {
		if _, err := core.ColdStart(policy, tp, tm, place.Options{Method: place.Heuristic}); err != nil {
			t.Fatal(err)
		}
	}
	objects := testing.AllocsPerRun(2, cold)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cold()
	runtime.ReadMemStats(&after)
	t.Logf("one cold start on %s: %.0f objects, %.1f MB", tp.Name, objects, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	if objects > 120000 {
		t.Errorf("cold start allocated %.0f objects, want at most 120 000", objects)
	}
}
