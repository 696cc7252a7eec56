// Command benchmark is the repository's benchmark: five wall-clock workloads
// over the real file-backed, durable, served index, driven through the
// public secidx API only, with answers checked against a brute-force column
// scan. See README.md in this directory and BENCHMARK.json at the root.
//
//	go run ./benchmark -workload <name|all> -seed <n> [-seconds s] [-trace] [-out f.json]
//	go run ./benchmark -compare a.json b.json
//
// An untraced run reports the end-to-end metrics; a traced run (-trace)
// repeats the workload with spans around the benchmark's own calls and
// probes of each layer's exported entry points, and reports the per-layer
// metrics. The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeTrace lets -trace be given bare (the issue's form) or with a 0/1
// value as a separate argument (the driver's form); the flag package accepts
// neither spelling for one flag.
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if a == "-trace" || a == "--trace" {
			v := "1"
			if i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1" || args[i+1] == "true" || args[i+1] == "false") {
				v = args[i+1]
				i++
			}
			a = "-trace=" + v
		}
		out = append(out, a)
	}
	return out
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var opt options
	var compare bool
	fs.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	fs.Int64Var(&opt.seed, "seed", 42, "seed of every generated input")
	fs.Float64Var(&opt.seconds, "seconds", defaultSeconds, "sizes the fixed operation lists: the timed phases together take about this long on the reference machine, in cycles of about 8 s")
	fs.Float64Var(&opt.scale, "scale", 1, "scales rows and operation counts together (tests use 0.01)")
	fs.BoolVar(&opt.trace, "trace", false, "traced run: spans, layer probes, per-layer metrics")
	fs.StringVar(&opt.out, "out", "", "also write the full report (provenance, every run) to this JSON file")
	fs.StringVar(&opt.dir, "dir", "", "directory for the run's files (default: the system's temp directory); a private subdirectory is made and removed")
	fs.BoolVar(&compare, "compare", false, "compare the reports named as arguments: -compare a.json b.json")
	if err := fs.Parse(normalizeTrace(args)); err != nil {
		return 2
	}
	if compare {
		return compareReports(os.Stdout, fs.Args())
	}
	if fs.NArg() > 0 || opt.seconds < 1 || opt.scale <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: unexpected arguments or non-positive -seconds/-scale")
		return 2
	}
	var todo []workloadDef
	if opt.workload == "all" {
		todo = workloads
	} else if w := findWorkload(opt.workload); w != nil {
		todo = []workloadDef{*w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", opt.workload)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	base := opt.dir
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	dir, err := os.MkdirTemp(base, "secidx-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The run's files go on every exit path, a signal included.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	defer os.RemoveAll(dir)

	full := fullReport{Provenance: provenance(opt, dir)}
	printProvenance(full.Provenance)
	code := 0
	for _, w := range todo {
		rep, err := runWorkload(w, opt, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
		full.Runs = append(full.Runs, rep)
		printReport(rep)
		if !rep.Correct {
			code = 1
		}
		if err := printResultLine(rep); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			return 1
		}
	}
	if opt.out != "" {
		data, err := json.MarshalIndent(full, "", "  ")
		if err == nil {
			err = os.WriteFile(opt.out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// runWorkload runs one workload: every cycle of it in its own subdirectory of
// dir, then the cycles' medians. A traced run makes one cycle: its figures
// have no bound to hold and its probes take time of their own.
func runWorkload(w workloadDef, opt options, dir string) (*runReport, error) {
	n := opt.cycles()
	if opt.trace {
		n = 1
	}
	var reps []*runReport
	for c := 0; c < n; c++ {
		rep, err := runCycle(w, opt.cycle(c), n, filepath.Join(dir, fmt.Sprintf("%s-%d", w.Name, c)))
		if err != nil {
			return nil, fmt.Errorf("cycle %d: %w", c, err)
		}
		reps = append(reps, rep)
	}
	return mergeCycles(opt, reps), nil
}

// mergeCycles reports every metric's median over the cycles (over all the
// cycles' rounds where the metric is a median of rounds: a median of few
// medians moves more than the median of all), the sums of their counts, and
// the last cycle's notes beside each cycle's own values.
func mergeCycles(opt options, reps []*runReport) *runReport {
	out := reps[len(reps)-1]
	if len(reps) == 1 {
		return out
	}
	perCycle := make(map[string][]float64, len(out.Metrics))
	rounds := make(map[string][]float64, len(out.Rounds))
	out.Attempted, out.Failed = 0, 0
	for _, r := range reps {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for name, m := range r.Metrics {
			perCycle[name] = append(perCycle[name], m.Value)
		}
		for name, vals := range r.Rounds {
			rounds[name] = append(rounds[name], vals...)
		}
	}
	for name, vals := range perCycle {
		if all, ok := rounds[name]; ok {
			vals = all
		}
		out.Metrics[name] = metricValue{Value: median(vals), Unit: out.Metrics[name].Unit}
	}
	out.Rounds = rounds
	out.Seed = opt.seed
	out.Correct = out.Failed == 0 && out.Attempted > 0
	out.Info["cycles"] = len(reps)
	out.Info["cycle_values"] = perCycle
	return out
}

// runCycle runs one cycle of a run of cycles.
func runCycle(w workloadDef, opt options, cycles int, dir string) (*runReport, error) {
	h := &harness{
		opt:    opt,
		cycles: cycles,
		dir:    dir,
		log:    os.Stderr,
		rep:    &runReport{Workload: w.Name, Seed: opt.seed, Trace: opt.trace, Metrics: map[string]metricValue{}, Info: map[string]any{}, Rounds: map[string][]float64{}},
	}
	if err := os.MkdirAll(h.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(h.dir)
	if opt.trace {
		h.tr = newTracer()
	}
	h.stage("other")
	if err := w.run(h); err != nil {
		return nil, err
	}
	h.stage("")
	h.info("stage_s", h.stages)
	rep := h.rep
	rep.Attempted, rep.Failed = h.attempted, h.failed
	rep.Correct = h.failed == 0 && h.attempted > 0
	want := endToEnd
	if opt.trace {
		want = perLayer
		rep.Shares = layerShares(h.tr.spans)
		path := filepath.Join(traceDir(opt), "trace-"+w.Name+".jsonl")
		if err := h.tr.writeJSONL(path); err != nil {
			return nil, err
		}
		rep.Info["trace_file"] = path
		rep.Info["spans"] = len(h.tr.spans)
	}
	// The report carries exactly the catalogue's metrics of its kind. A
	// per-layer figure the workload does not exercise reads 0; an end-to-end
	// metric a workload failed to produce is a bug in the benchmark.
	metrics := make(map[string]metricValue, len(want))
	for _, d := range want {
		v, ok := rep.Metrics[d.Name]
		if !ok {
			if !opt.trace {
				return nil, fmt.Errorf("workload did not report %s", d.Name)
			}
			v = metricValue{Unit: d.Unit}
		}
		metrics[d.Name] = v
	}
	rep.Metrics = metrics
	return rep, nil
}

// traceDir is where trace-<workload>.jsonl goes: beside -out when given,
// else -dir, else the working directory.
func traceDir(opt options) string {
	switch {
	case opt.out != "":
		return filepath.Dir(opt.out)
	case opt.dir != "":
		return opt.dir
	}
	return "."
}

// fullReport is the -out file: what -compare reads.
type fullReport struct {
	Provenance map[string]any `json:"provenance"`
	Runs       []*runReport   `json:"runs"`
}

func provenance(opt options, dir string) map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"kernel":     kernelRelease(),
		"git_commit": gitCommit(),
		"seed":       opt.seed,
		"seconds":    opt.seconds,
		"scale":      opt.scale,
		"trace":      opt.trace,
		"dir":        dir,
		"dir_fs":     fsType(dir),
		"note": "latencies are this sandbox's, not a device's: the page cache is warm and fsync costs what the sandbox's " +
			"filesystem makes it cost; one process, GOMAXPROCS = nproc, fixed seeded operation lists",
	}
	return p
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func printProvenance(p map[string]any) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("# provenance")
	for _, k := range keys {
		fmt.Printf("#   %-11s %v\n", k, p[k])
	}
}

// printReport prints every metric of the run by name with its unit, then the
// counts behind them.
func printReport(rep *runReport) {
	kind, defs := "end-to-end", endToEnd
	if rep.Trace {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("\n== %s  seed %d  %s\n", rep.Workload, rep.Seed, kind)
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Printf("%-34s %16.4f %-7s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	failedFrac := 0.0
	if rep.Attempted > 0 {
		failedFrac = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("%-34s %16.6f %-7s (%d of %d attempted: errors + sheds + oracle mismatches)\n", "failed_frac", failedFrac, "ratio", rep.Failed, rep.Attempted)
	keys := make([]string, 0, len(rep.Info))
	for k := range rep.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %v\n", k, rep.Info[k])
	}
	if len(rep.Shares) > 0 {
		fmt.Println("  share of the sampled requests' root time, by replayed layer:")
		names := make([]string, 0, len(rep.Shares))
		for k := range rep.Shares {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return rep.Shares[names[i]] > rep.Shares[names[j]] })
		for _, k := range names {
			fmt.Printf("    %-28s %7.1f %%\n", k, rep.Shares[k]*100)
		}
	}
}

// printResultLine prints the driver's line: exactly correct, attempted,
// failed and metrics.
func printResultLine(rep *runReport) error {
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}
