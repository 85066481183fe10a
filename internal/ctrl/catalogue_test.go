package ctrl_test

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"snap/internal/apps"
	"snap/internal/bench"
	"snap/internal/core"
	"snap/internal/ctrl"
	"snap/internal/dataplane"
	"snap/internal/pkt"
	"snap/internal/place"
	"snap/internal/syntax"
	"snap/internal/topo"
	"snap/internal/traffic"
	"snap/internal/values"
)

// catalogueRow matches one row of the metric table in docs/ARCHITECTURE.md:
// | `snap_name` | type | `label`, `label` |  (— where there are none).
var catalogueRow = regexp.MustCompile("(?m)^\\| `(snap_[a-z_]+)` \\| (counter|gauge|histogram) \\| ([^|]*) \\|")

// TestMetricCatalogue: the metric table in docs/ARCHITECTURE.md names every
// family an engine and its controller register, with its type and labels,
// and nothing they do not register. The scrape follows one policy edit,
// which files the families recorded per controller action.
func TestMetricCatalogue(t *testing.T) {
	doc, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ kind, labels string }
	documented := map[string]entry{}
	for _, m := range catalogueRow.FindAllStringSubmatch(string(doc), -1) {
		labels := strings.NewReplacer("`", "", " ", "", "—", "").Replace(m[3])
		documented[m[1]] = entry{m[2], labels}
	}

	netw := topo.Campus(1000)
	tm := traffic.Gravity(netw, 100, 1)
	policy := func(extra syntax.Policy) syntax.Policy {
		return syntax.Then(apps.Assumption(6), apps.DNSTunnelDetect(), extra, apps.AssignEgress(6))
	}
	comp, err := core.ColdStart(policy(syntax.Id()), netw, tm, place.Options{Method: place.Heuristic})
	if err != nil {
		t.Fatal(err)
	}
	eng := dataplane.NewEngine(comp.Config, dataplane.Options{Workers: 2})
	defer eng.Close()
	ctl := ctrl.New(comp, eng, ctrl.Options{})
	if err := eng.InjectReplay(bench.ReplayIngress(tm.Replay(500, 1))); err != nil {
		t.Fatal(err)
	}
	acl := syntax.Cond(syntax.FieldEq(pkt.SrcPort, values.Int(7777)), syntax.Nothing(), syntax.Id())
	if _, err := ctl.ApplyPolicy(policy(acl)); err != nil {
		t.Fatal(err)
	}

	scraped := map[string]bool{}
	for _, m := range eng.Telemetry().Snapshot().Metrics {
		scraped[m.Name] = true
		want, ok := documented[m.Name]
		if !ok {
			t.Errorf("%s (%s) is registered but missing from the catalogue", m.Name, m.Kind)
			continue
		}
		if m.Kind != want.kind {
			t.Errorf("%s is a %s, the catalogue says %s", m.Name, m.Kind, want.kind)
		}
		for _, s := range m.Samples {
			var got []string
			for k := range s.Labels {
				got = append(got, k)
			}
			slices.Sort(got)
			wantLabels := strings.Split(want.labels, ",")
			if want.labels == "" {
				wantLabels = nil
			}
			slices.Sort(wantLabels)
			if !slices.Equal(got, wantLabels) {
				t.Errorf("%s samples carry labels %v, the catalogue says %v", m.Name, got, wantLabels)
				break
			}
		}
	}
	for name := range documented {
		if !scraped[name] {
			t.Errorf("%s is in the catalogue but not in the scrape", name)
		}
	}
}
