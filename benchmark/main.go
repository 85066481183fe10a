// snapmark is the repository's benchmark: four workloads, seven end-to-end
// metrics each, and a per-module layer budget measured from outside.
//
//	snapmark -workload <name|all> -seed <n> [-seconds <s>] [-trace 0|1] [-out <file>]
//	snapmark -compare old.json new.json
//
// One workload runs in one process; -workload all starts one process per
// workload and pass (untraced, then traced) and merges their results. The
// last line of standard output is one JSON object: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

var processStart = time.Now()

// defaultSeed is the seed results are recorded with; heldOutSeed is the one
// a claim must also hold on and nobody tunes against.
const (
	defaultSeed = 1
	heldOutSeed = 20160822
)

func main() {
	var cfg config
	var compare bool
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measurement window")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass (per-layer metrics) instead of the end-to-end pass")
	flag.StringVar(&cfg.out, "out", "", "result file (default: out/<workload>.json beside bin/); span files go beside it")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = traceFlag != 0

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: snapmark -compare old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if cfg.out == "" {
		exe, err := os.Executable()
		if err != nil {
			fatal(err)
		}
		cfg.out = filepath.Join(filepath.Dir(exe), "..", "out", resultName(cfg.workload, cfg.trace))
	}
	if cfg.workload == "all" {
		if err := runAll(cfg); err != nil {
			fatal(err)
		}
		return
	}
	res, err := runWorkload(cfg, time.Since(processStart))
	if err != nil {
		fatal(err)
	}
	printResult(os.Stdout, res)
	if err := writeResults(cfg.out, []*result{res}); err != nil {
		fatal(err)
	}
	if err := printLastLine(os.Stdout, res); err != nil {
		fatal(err)
	}
	if res.Failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "snapmark:", err)
	os.Exit(2)
}

func resultName(workload string, trace bool) string {
	if trace {
		return workload + ".layers.json"
	}
	return workload + ".json"
}

// resultFile is the document -out holds and -compare reads.
type resultFile struct {
	DefaultSeed int64     `json:"default_seed"`
	HeldOutSeed int64     `json:"held_out_seed"`
	Runs        []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(resultFile{defaultSeed, heldOutSeed, runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// runAll runs every workload, each pass in a process of its own, one after
// the other, and merges what they wrote into -out.
func runAll(cfg config) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var runs []*result
	failed := false
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			part := filepath.Join(filepath.Dir(cfg.out), resultName(sp.name, trace))
			traceArg := "0"
			if trace {
				traceArg = "1"
			}
			cmd := exec.Command(exe,
				"-workload", sp.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", traceArg, "-out", part)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if _, ok := err.(*exec.ExitError); !ok {
					return err
				}
				failed = true
			}
			f, err := readResults(part)
			if err != nil {
				return err
			}
			runs = append(runs, f.Runs...)
		}
	}
	if err := writeResults(cfg.out, runs); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("at least one workload failed")
	}
	return nil
}

// printResult prints every row by name with its unit, then the budgets.
func printResult(w io.Writer, r *result) {
	h := r.Host
	fmt.Fprintf(w, "# %s  trace=%v seed=%d seconds=%g\n", r.Workload, r.Trace, r.Seed, r.Seconds)
	fmt.Fprintf(w, "# commit=%s %s cpu=%q numcpu=%d gomaxprocs=%d par_workers=%d loadavg1=%.2f→%.2f\n",
		h.Commit, h.GoVersion, h.CPUModel, h.NumCPU, h.GOMAXPROCS, h.ParWorkers, h.LoadStart, h.LoadEnd)
	names := make([]string, 0, len(r.Rows))
	for name := range r.Rows {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %-6s %-6s %14s %14s %14s %14s %7s  %s\n", "metric", "value", "unit", "stat", "median", "min", "q1", "q3", "n", "note")
	for _, name := range names {
		x := r.Rows[name]
		note := x.Note
		if x.Valid != nil {
			note = fmt.Sprintf("valid=%v %s", *x.Valid, note)
		}
		fmt.Fprintf(w, "%-36s %14.4f %-6s %-6s %14.4f %14.4f %14.4f %14.4f %7d  %s\n", name, x.Value, x.Unit, x.Stat, x.Median, x.Min, x.Q1, x.Q3, x.N, note)
	}
	for _, b := range r.Budgets {
		fmt.Fprintf(w, "budget %s (%s)\n", b.Name, b.Unit)
		for _, l := range b.Lines {
			fmt.Fprintf(w, "  %-44s %14.4f\n", l.Layer, l.Value)
		}
		fmt.Fprintf(w, "  %-44s %14.4f\n  %-44s %14.4f\n  %-44s %13.1f%%\n  %-44s %14.4f\n",
			"sum of layers", b.Sum, "end to end", b.EndToEnd, "residual", 100*b.Residual,
			"same operation untraced, same process", b.Untraced)
	}
	if len(r.CrossChecks) > 0 {
		fmt.Fprintf(w, "cross-check %-24s %14s %18s\n", "phase", "from outside", "Compilation.Times")
		for _, c := range r.CrossChecks {
			fmt.Fprintf(w, "  %-34s %14.4f %18.4f\n", c.Metric, c.OutsideMs, c.InsideMs)
		}
	}
	phases := make([]string, 0, len(r.PhaseWall))
	for p := range r.PhaseWall {
		phases = append(phases, p)
	}
	sort.Strings(phases)
	fmt.Fprint(w, "wall s per phase:")
	for _, p := range phases {
		fmt.Fprintf(w, " %s=%.2f", p, r.PhaseWall[p])
	}
	fmt.Fprintf(w, "\nattempted=%d failed=%d\n", r.Attempted, r.Failed)
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
}

// printLastLine prints the one JSON object the driver reads: exactly the
// end-to-end metrics of an untraced run, or the per-layer metrics of a traced
// one, each as measured.
func printLastLine(w io.Writer, r *result) error {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		x, ok := r.Rows[d.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		metrics[d.Name] = value{x.Value, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
