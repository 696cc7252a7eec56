package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	secidx "repro"
	"repro/internal/workload"
)

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	scale    float64
	trace    bool
	out      string
	dir      string
}

// refSeconds is the -seconds value the base operation counts are sized for:
// at -seconds 10 -scale 1 a timed phase takes roughly ten seconds here.
const refSeconds = 10

// defaultSeconds is -seconds where it is not given: BENCHMARK.json's
// run_seconds.
const defaultSeconds = 20

// cycleSeconds is what one cycle's operation lists are sized for. A run of
// -seconds s goes through the whole workload (set-up, timed phase, recoveries,
// oracle) about s/cycleSeconds times, each cycle on inputs of its own
// seed derived from -seed, and reports every metric's median over the cycles.
// This sandbox's speed wanders by 10 to 20 % over seconds: a phase that runs
// once samples one stretch of that, a metric taken once per cycle samples the
// whole run.
const cycleSeconds = 8

// cycles is how many cycles the seconds are divided into.
func (o options) cycles() int { return max(1, int(o.seconds/cycleSeconds+0.5)) }

// cycle returns the options of cycle c: its share of the seconds and its own
// seed.
func (o options) cycle(c int) options {
	o.seconds /= float64(o.cycles())
	o.seed += int64(c) * 1_000_003
	return o
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runReport is everything one run of one workload reports.
type runReport struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info"`
	// Rounds holds, for a metric that is a median of rounds, each round's
	// value: a run of several cycles reports the median of all its rounds.
	Rounds map[string][]float64 `json:"rounds,omitempty"`
	Shares map[string]float64   `json:"shares,omitempty"`
}

// harness carries one run's state: where its files live, what it counted,
// what it reports.
type harness struct {
	opt    options // of this cycle: its seed, its share of the seconds
	cycles int     // cycles the run makes
	dir    string  // this cycle's private directory, removed when it ends
	tr     *tracer // nil: untraced
	log    io.Writer

	mu        sync.Mutex
	attempted int64
	failed    int64
	rep       *runReport
	setups    int // set-up directories made so far: each set-up gets a fresh one
	// stages is where the cycle's wall time went, by stage name.
	stages     map[string]float64
	stageName  string
	stageStart time.Time
	// untracedPerSec is the throughput the traced run measured with tracing
	// off, the base of process.trace_overhead_frac.
	untracedPerSec float64
}

func (h *harness) rows(base int) int { return max(256, int(float64(base)*h.opt.scale)) }

// ops scales an operation count by -scale and -seconds; floor keeps balanced
// designs whole at small scales.
func (h *harness) ops(base, floor int) int {
	return max(floor, int(float64(base)*h.opt.scale*h.opt.seconds/refSeconds))
}

// stage closes the current stage of the cycle and opens the named one: the
// report lists where the run's wall time went. What lies between the named
// stages (generating inputs, the oracle's scans, closing handles) is "other".
func (h *harness) stage(name string) func() {
	now := time.Now()
	if h.stages == nil {
		h.stages = map[string]float64{}
	}
	if h.stageName != "" {
		h.stages[h.stageName] += now.Sub(h.stageStart).Seconds()
	}
	h.stageName, h.stageStart = name, now
	return func() { h.stage("other") }
}

func (h *harness) attempt(n int) {
	h.mu.Lock()
	h.attempted += int64(n)
	h.mu.Unlock()
}

// failf counts one failed operation: an error, a shed request or an answer
// that disagrees with the oracle.
func (h *harness) failf(format string, args ...any) {
	h.mu.Lock()
	h.failed++
	n := h.failed
	h.mu.Unlock()
	if n <= 5 {
		fmt.Fprintf(h.log, "FAIL: "+format+"\n", args...)
	}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func (h *harness) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	h.mu.Lock()
	h.rep.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	h.mu.Unlock()
}

// setRounds reports a metric as the median of its rounds' values and keeps
// the rounds for mergeCycles.
func (h *harness) setRounds(name string, rounds []float64) {
	h.set(name, median(rounds))
	h.mu.Lock()
	h.rep.Rounds[name] = rounds
	h.mu.Unlock()
}

func (h *harness) get(name string) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rep.Metrics[name].Value
}

func (h *harness) info(key string, v any) {
	h.mu.Lock()
	h.rep.Info[key] = v
	h.mu.Unlock()
}

func (h *harness) subdir(name string) (string, error) {
	d := filepath.Join(h.dir, name)
	return d, os.MkdirAll(d, 0o755)
}

// instance is one set-up index: built in memory, written with WriteFile and
// reopened with OpenFile, with how long each stage took.
type instance struct {
	col  workload.Column // what it was built over, where the set-up generates it
	mem  *secidx.Index   // the never-persisted in-memory index (static kind only)
	o    *secidx.Opened
	srv  *secidx.Server // non-nil when the workload serves
	path string

	bytes                    int64 // container size as WriteFile left it
	buildNS, writeNS, openNS time.Duration
}

func (in *instance) close() error {
	var first error
	if in.srv != nil {
		first = in.srv.Close()
	}
	if err := in.o.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// persist runs the three timed stages every set-up has: build, WriteFile to
// path, OpenFile with oo. It returns the in-memory index beside the instance.
func persist[T interface{ WriteFile(string) error }](path string, oo secidx.OpenOptions, build func() (T, error)) (T, *instance, error) {
	in := &instance{path: path}
	t0 := time.Now()
	mem, err := build()
	if err != nil {
		return mem, nil, err
	}
	in.buildNS = time.Since(t0)
	t0 = time.Now()
	if err := mem.WriteFile(path); err != nil {
		return mem, nil, err
	}
	in.writeNS, in.bytes = time.Since(t0), fileSize(path)
	t0 = time.Now()
	if in.o, err = secidx.OpenFile(path, oo); err != nil {
		return mem, nil, err
	}
	in.openNS = time.Since(t0)
	return mem, in, nil
}

// setupMedian sets the workload up reps times, each in a fresh directory,
// reports the median set-up time and returns the last instance. Earlier
// instances are closed and their files removed before the next is made.
func (h *harness) setupMedian(reps int, setup func(dir string) (*instance, error)) (*instance, error) {
	defer h.stage("setup")()
	var cur *instance
	var curDir string
	var durs []float64
	for i := 0; i < reps; i++ {
		h.setups++
		dir, err := h.subdir(fmt.Sprintf("setup%d", h.setups))
		if err != nil {
			return nil, err
		}
		runtime.GC()
		t0 := time.Now()
		next, err := setup(dir)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		durs = append(durs, time.Since(t0).Seconds())
		if cur != nil {
			if err := cur.close(); err != nil {
				return nil, fmt.Errorf("closing set-up %d: %w", i-1, err)
			}
			os.RemoveAll(curDir)
		}
		cur, curDir = next, dir
	}
	h.set("setup_s", median(durs))
	h.info("setup_runs_s", durs)
	return cur, nil
}

// setupMetrics reports the traced run's figures of the set-up stages.
func (h *harness) setupMetrics(in *instance, rows int) {
	h.set("container.write_mb_per_s", float64(in.bytes)/1e6/in.writeNS.Seconds())
	h.set("container.open_ms", in.openNS.Seconds()*1e3)
	h.set("container.bytes", float64(in.bytes))
	h.set("core.build_ns_per_row", float64(in.buildNS)/float64(rows))
}

// readCountMetrics reports the traced run's counts over queries exact
// queries.
func (h *harness) readCountMetrics(tot readTotals, queries int) {
	h.set("cbitmap.answer_bits_per_row", float64(tot.sizeBits)/float64(max(tot.card, 1)))
	h.set("iomodel.bits_per_query", float64(tot.bitsRead)/float64(max(queries, 1)))
	h.set("iomodel.block_reads", float64(tot.reads))
}

// reps shares total repetitions of a side measurement (set-ups, recoveries)
// among the run's cycles; a traced run, which only needs the instance or the
// span, makes one.
func (h *harness) reps(total int) int {
	if h.opt.trace {
		return 1
	}
	n := max(h.cycles, 1)
	return (total + n - 1) / n
}

func copyFile(dst, src string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// recoverMedian measures restart-to-ready: reps times it copies the
// container and its log (taken while the writing handle is still open, as a
// crash would leave them) into a fresh directory, times
// OpenFile there and runs check on the reopened handle. It reports the median
// as durable.recover_s.
func (h *harness) recoverMedian(reps int, path string, oo func() secidx.OpenOptions, check func(*secidx.Opened) error) error {
	defer h.stage("recover")()
	var durs []float64
	for i := 0; i < reps; i++ {
		dir, err := h.subdir(fmt.Sprintf("recover%d", i))
		if err != nil {
			return err
		}
		cp := filepath.Join(dir, filepath.Base(path))
		if err := copyFile(cp, path); err != nil {
			return err
		}
		if err := copyFile(cp+".wal", path+".wal"); err != nil {
			return err
		}
		runtime.GC()
		id := h.tr.start(0, 0, "secidx.OpenFile(recover)")
		t0 := time.Now()
		o, err := secidx.OpenFile(cp, oo())
		d := time.Since(t0)
		h.tr.end(id)
		h.attempt(1)
		if err != nil {
			h.failf("recovery open: %v", err)
			continue
		}
		durs = append(durs, d.Seconds())
		if err := check(o); err != nil {
			h.failf("after recovery: %v", err)
		}
		if err := o.Close(); err != nil {
			h.failf("closing recovered handle: %v", err)
		}
		os.RemoveAll(dir)
	}
	h.set("durable.recover_s", median(durs))
	h.info("recover_s", median(durs))
	h.info("recover_runs_s", durs)
	return nil
}

// oracleRows answers a range by scanning the column model. Deleted rows hold
// deadKey, which no range reaches.
func oracleRows(col []uint32, lo, hi uint32) []int64 {
	return workload.BruteForce(workload.Column{X: col}, workload.RangeQuery{Lo: lo, Hi: hi})
}

const deadKey = math.MaxUint32

// checkExact compares an answer's cardinality and row ids with the oracle.
func (h *harness) checkExact(what string, col []uint32, lo, hi uint32, res *secidx.Result) {
	want := oracleRows(col, lo, hi)
	if res.Card() != int64(len(want)) {
		h.failf("%s [%d,%d]: %d rows, oracle has %d", what, lo, hi, res.Card(), len(want))
		return
	}
	if !slices.Equal(res.Rows(), want) {
		h.failf("%s [%d,%d]: row ids differ from the oracle's", what, lo, hi)
	}
}

// checkApprox checks the one-sided guarantee: no row of the exact answer is
// missing from the approximate one.
func (h *harness) checkApprox(what string, col []uint32, lo, hi uint32, res *secidx.ApproxResult) {
	for _, row := range oracleRows(col, lo, hi) {
		if !res.Contains(row) {
			h.failf("%s [%d,%d]: approximate answer misses row %d", what, lo, hi, row)
			return
		}
	}
}

// checkRanges checks n seeded range answers of a reopened handle.
func (h *harness) checkRanges(what string, col []uint32, sigma, n int, query func(lo, hi uint32) (*secidx.Result, secidx.Stats, error)) {
	rng := rngFor(h.opt.seed, "recovery-check")
	for _, r := range balancedRanges(rng, n, sigma, 4, 4) {
		h.attempt(1)
		res, _, err := query(r.Lo, r.Hi)
		if err != nil {
			h.failf("%s [%d,%d]: %v", what, r.Lo, r.Hi, err)
			continue
		}
		h.checkExact(what, col, r.Lo, r.Hi, res)
	}
}

// requireSpace refuses to start when the run's directory has less free space
// than four times the largest container (about 12 bytes a row at the
// repo's default parameters).
func (h *harness) requireSpace(rows int) error {
	need := uint64(4 * 12 * rows)
	free, ok := freeBytes(h.dir)
	if ok && free < need {
		return fmt.Errorf("%s has %d bytes free, the run needs %d (4 x the largest container)", h.dir, free, need)
	}
	return nil
}

// phaseUsage brackets a timed phase with process counters.
type phaseUsage struct {
	cpu0   float64
	mem0   runtime.MemStats
	CPU    float64
	Alloc  uint64
	PauseS float64
}

func beginUsage() *phaseUsage {
	u := &phaseUsage{cpu0: cpuSeconds()}
	runtime.ReadMemStats(&u.mem0)
	return u
}

func (u *phaseUsage) finish() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u.CPU = cpuSeconds() - u.cpu0
	u.Alloc = m.TotalAlloc - u.mem0.TotalAlloc
	u.PauseS = float64(m.PauseTotalNs-u.mem0.PauseTotalNs) / 1e9
}

// processMetrics reports the process.* figures of a traced phase of ops
// operations whose throughput was perSec.
func (h *harness) processMetrics(u *phaseUsage, ops int, perSec float64) {
	if ops > 0 {
		h.set("process.cpu_s_per_kop", u.CPU/float64(ops)*1000)
		h.set("process.alloc_bytes_per_op", float64(u.Alloc)/float64(ops))
	}
	h.set("process.gc_pause_ms", u.PauseS*1e3)
	h.set("process.peak_rss_mb", peakRSSMB())
	if h.untracedPerSec > 0 {
		h.set("process.trace_overhead_frac", 1-perSec/h.untracedPerSec)
	}
}

// sortedCopy returns v sorted ascending.
func sortedCopy(v []int64) []int64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return s
}
