// Command snapbench regenerates the paper's evaluation tables and figures
// (§6.2) and the repo's exact-count experiments. Each experiment prints the
// same rows/series the paper reports; absolute times reflect this machine,
// shapes are what to compare (see EXPERIMENTS.md). Packet and
// reconfiguration timings are not taken here: they are snapmark's
// (benchmark/), which checks its outputs and documents its spread.
//
// Usage:
//
//	snapbench -exp table5 -scale full
//	snapbench -exp all    -scale ci
//	snapbench -exp all    -scale ci -json report.json
//
// With -json, the rows of every experiment run are also written to the
// given file as a machine-readable report (durations in nanoseconds).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"snap/internal/bench"
	"snap/internal/telemetry"
)

// experiment is one entry of the table below: -exp <name> prints the title
// and the formatted rows, and -json stores the rows under the name.
type experiment struct {
	name, title string
	run         func(bench.Scale) (rows any, text string, err error)
}

// entry pairs an experiment's row function with the formatter of its row
// type, so the table cannot print one experiment's rows with another's.
func entry[R any](name, title string, rows func(bench.Scale) (R, error), format func(R) string) experiment {
	return experiment{name, title, func(s bench.Scale) (any, string, error) {
		r, err := rows(s)
		return r, format(r), err
	}}
}

// experiments is the whole list: the usage string, -exp all and the
// unknown-experiment error are all read from it.
var experiments = []experiment{
	entry("table3", "Table 3: applications written in SNAP",
		func(bench.Scale) ([]bench.Table3Row, error) { return bench.Table3() }, bench.FormatTable3),
	entry("table4", "Table 4: compiler phases per scenario", bench.Table4Rows, bench.FormatTable4),
	entry("table5", "Table 5: evaluated topologies", bench.Table5, bench.FormatTable5),
	entry("table6", "Table 6: phase runtimes, DNS-tunnel-detect with routing", bench.Table6, bench.FormatTable6),
	entry("fig9", "Figure 9: compilation time per scenario", bench.Table6, bench.FormatFig9),
	entry("fig10", "Figure 10: scaling with topology size", bench.Fig10, bench.FormatFig10),
	entry("fig11", "Figure 11: scaling with composed policies", bench.Fig11, bench.FormatFig11),
	entry("policy", "Policy delta: incremental PolicyChange vs cold recompile of the same edit",
		bench.PolicyDelta, bench.FormatPolicyDelta),
	entry("failover", "Failover: mid-stream switch kill, replicated vs unreplicated state",
		bench.Failover, bench.FormatFailover),
	entry("chaos", "Chaos soak: sustained throughput under churn + scheduled failures",
		bench.Chaos, bench.FormatChaos),
}

// names lists the experiments as the -exp flag accepts them.
func names() string {
	ns := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		ns = append(ns, e.name)
	}
	return strings.Join(append(ns, "all"), "|")
}

// report is the machine-readable counterpart of the printed tables.
type report struct {
	Scale       string         `json:"scale"`
	GeneratedAt string         `json:"generated_at"`
	GoVersion   string         `json:"go_version"`
	Experiments map[string]any `json:"experiments"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "snapbench: %v\n", err)
		}
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("snapbench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: "+names())
	scaleName := fs.String("scale", "ci", "scale preset: ci|full")
	jsonPath := fs.String("json", "", "also write the collected rows as JSON to this file")
	telemetryAddr := fs.String("telemetry", "", "serve process metrics and /debug/pprof on this address while the experiments run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *telemetryAddr != "" {
		// The experiments build their engines internally, so this registry
		// carries only process-level series — its value is the pprof
		// endpoint for profiling a long bench run.
		srv, err := telemetry.Serve(*telemetryAddr, telemetry.NewRegistry())
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "telemetry: %s/debug/pprof/\n", srv.URL())
	}

	scale := bench.CI
	if *scaleName == "full" {
		scale = bench.Full
	}
	rep := report{
		Scale:       scale.Name,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Experiments: map[string]any{},
	}
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		rows, text, err := e.run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		rep.Experiments[e.name] = rows
		fmt.Fprintf(stdout, "== %s (scale=%s) ==\n%s\n", e.title, scale.Name, text)
	}
	if len(rep.Experiments) == 0 {
		return fmt.Errorf("unknown experiment %q (want %s)", *exp, names())
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write report: %w", err)
		}
		fmt.Fprintf(stdout, "wrote %s (%d experiments, scale=%s)\n", *jsonPath, len(rep.Experiments), rep.Scale)
	}
	return nil
}
