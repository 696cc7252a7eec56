package main

import (
	"fmt"
	"path/filepath"
	"time"

	secidx "repro"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
)

// point-pread: a static index in a pread file with no block cache, one
// closed-loop client asking for single keys, every 16th operation an
// approximate query over 16 keys.

const (
	pointRows   = 524288
	pointSigma  = 1024
	pointPasses = 80 // passes over the alphabet at -seconds 10
)

type pointOp struct {
	approx bool
	lo, hi uint32
}

type pointInputs struct {
	n, sigma      int
	ops           []pointOp
	exact, approx int
	hash          uint64
}

func genPointPread(h *harness) *pointInputs {
	in := &pointInputs{n: h.rows(pointRows), sigma: pointSigma}
	keys := balancedKeys(rngFor(h.opt.seed, "point-keys"), in.sigma, h.ops(pointPasses, 1))
	ar := balancedRanges(rngFor(h.opt.seed, "point-approx"), len(keys)/15, in.sigma, 16, 16)
	hash := newOpHash()
	for i, k := range keys {
		in.ops = append(in.ops, pointOp{lo: k, hi: k})
		hash.add(0, uint64(k))
		if (i+1)%15 == 0 && in.approx < len(ar) {
			r := ar[in.approx]
			in.ops = append(in.ops, pointOp{approx: true, lo: r.Lo, hi: r.Hi})
			hash.add(1, uint64(r.Lo), uint64(r.Hi))
			in.approx++
		}
	}
	in.exact, in.hash = len(keys), hash.h
	return in
}

// setupStatic generates the column, builds the static index over it, persists
// and reopens it.
func setupStatic(h *harness, dir string, n, sigma int, oo secidx.OpenOptions) (*instance, error) {
	col := zipfColumn(n, sigma, 1.0, h.opt.seed)
	mem, inst, err := persist(filepath.Join(dir, "static.idx"), oo, func() (*secidx.Index, error) {
		return secidx.Build(col.X, sigma, secidx.Options{})
	})
	if err != nil {
		return nil, err
	}
	inst.col, inst.mem = col, mem
	return inst, nil
}

// readTotals are the counters a read phase sums over its exact queries.
type readTotals struct {
	reads, bitsRead, sizeBits, card int64
}

func (t *readTotals) add(st secidx.Stats, res *secidx.Result) {
	t.reads += int64(st.Reads)
	t.bitsRead += st.BitsRead
	t.sizeBits += int64(res.SizeBits())
	t.card += res.Card()
}

// sampledQuery is a request the traced run replays through the layers.
type sampledQuery struct {
	req, root int64
	lo, hi    uint32
	reads     int
	rootNS    time.Duration
}

type checkedAnswer struct {
	lo, hi uint32
	exact  *secidx.Result
	approx *secidx.ApproxResult
}

type pointPhase struct {
	exact, approx series
	tot           readTotals
	approxBits    int64
	checks        []checkedAnswer
	sampled       []sampledQuery
	usage         *phaseUsage
}

// runPhase runs the operation list once: 5 % of it untimed to warm up, then
// all of it timed in five rounds.
func (in *pointInputs) runPhase(h *harness, ix *secidx.Index, tr *tracer) *pointPhase {
	defer h.stage("timed phase")()
	ph := &pointPhase{}
	for _, op := range in.ops[:len(in.ops)/20] {
		if op.approx {
			ix.ApproxQuery(op.lo, op.hi, 1.0/16)
		} else {
			ix.Query(op.lo, op.hi)
		}
	}
	rng := rngFor(h.opt.seed, "point-sample")
	check := newSampler(rng, len(in.ops), 40, 32)
	probe := newSampler(rng, len(in.ops), max(1, len(in.ops)/1000), 0)
	const rounds = 5
	ph.usage = beginUsage()
	for i, op := range in.ops {
		if i%(len(in.ops)/rounds+1) == 0 {
			ph.exact.mark()
			ph.approx.mark()
		}
		req := int64(i + 1)
		if op.approx {
			id := tr.start(req, 0, "secidx.Index.ApproxQuery")
			t0 := time.Now()
			res, st, err := ix.ApproxQuery(op.lo, op.hi, 1.0/16)
			ph.approx.add(time.Since(t0))
			tr.end(id)
			if err != nil {
				h.failf("approx [%d,%d]: %v", op.lo, op.hi, err)
				continue
			}
			ph.approxBits += st.BitsRead
			if check.pick(i) {
				ph.checks = append(ph.checks, checkedAnswer{lo: op.lo, hi: op.hi, approx: res})
			}
			continue
		}
		id := tr.start(req, 0, "secidx.Index.Query")
		t0 := time.Now()
		res, st, err := ix.Query(op.lo, op.hi)
		d := time.Since(t0)
		tr.end(id)
		ph.exact.add(d)
		if err != nil {
			h.failf("query [%d,%d]: %v", op.lo, op.hi, err)
			continue
		}
		ph.tot.add(st, res)
		if check.pick(i) {
			ph.checks = append(ph.checks, checkedAnswer{lo: op.lo, hi: op.hi, exact: res})
		}
		if tr != nil && probe.pick(i) {
			ph.sampled = append(ph.sampled, sampledQuery{req: req, root: id, lo: op.lo, hi: op.hi, reads: st.Reads, rootNS: d})
		}
	}
	ph.usage.finish()
	h.attempt(len(in.ops))
	return ph
}

func (h *harness) verify(what string, col []uint32, checks []checkedAnswer) {
	defer h.stage("oracle")()
	for _, c := range checks {
		if c.approx != nil {
			h.checkApprox(what, col, c.lo, c.hi, c.approx)
		} else {
			h.checkExact(what, col, c.lo, c.hi, c.exact)
		}
	}
	h.info("answers_checked", len(checks))
}

// readMetrics reports the end-to-end read figures of a phase; tot sums the
// counters of counted exact queries.
func (h *harness) readMetrics(exact summary, perSec []float64, tot readTotals, counted int) {
	h.setRounds("query_p50_us", exact.P50s)
	h.set("process.query_p99_us", exact.Tail)
	h.info("query_p99_us", exact.Tail)
	h.setRounds("query_per_s", perSec)
	h.set("blocks_per_query", float64(tot.reads)/float64(max(counted, 1)))
	h.set("read_amp", float64(tot.bitsRead)/float64(max(tot.sizeBits, 1)))
	h.info("query_samples", exact.N)
	h.info("query_tail_percentile", exact.TailPct)
	h.info("query_rounds", exact.Rounds)
}

func runPointPread(h *harness) error {
	in := genPointPread(h)
	if err := h.requireSpace(in.n); err != nil {
		return err
	}
	h.info("rows", in.n)
	h.info("sigma", in.sigma)
	h.info("ops_exact", in.exact)
	h.info("ops_approx", in.approx)
	h.info("op_list_hash", fmt.Sprintf("%016x", in.hash))
	oo := secidx.OpenOptions{Mode: secidx.ModePread, CacheBlocks: 0}
	inst, err := h.setupMedian(h.reps(3), func(dir string) (*instance, error) {
		return setupStatic(h, dir, in.n, in.sigma, oo)
	})
	if err != nil {
		return err
	}
	defer inst.close()
	size := inst.bytes
	h.info("container_bytes", size)

	ph := in.runPhase(h, inst.o.Static, nil)
	ex := ph.exact.summarize()
	if h.opt.trace {
		h.untracedPerSec = ex.PerSec
		ph = in.runPhase(h, inst.o.Static, h.tr)
		ex = ph.exact.summarize()
	}
	h.verify("point-pread", inst.col.X, ph.checks)
	h.readMetrics(ex, ex.Rates, ph.tot, ex.N)
	ap := ph.approx.summarize()
	h.set("core.approx_p50_us", ap.P50)
	h.info("approx_p50_us", ap.P50)
	h.info("approx_samples", ap.N)
	h.set("bits_per_row", float64(size*8)/float64(in.n))
	if h.opt.trace {
		return in.probe(h, inst, ph, ex)
	}
	return nil
}

// staticLayerMetrics reports the figures every file-backed read workload
// derives the same way.
func (h *harness) staticLayerMetrics(p *probes, inst *instance, rows int, exact summary, tot readTotals) {
	h.set("bitio.read_ns_per_word", p.perUnit("bitio.ReadBits"))
	h.set("gamma.decode_ns_per_int", p.perUnit("gamma.Read"))
	h.set("cbitmap.decode_ns_per_row", p.perUnit("cbitmap.Decode"))
	h.set("cbitmap.merge_ns_per_row", p.perUnit("cbitmap.UnionAll"))
	h.set("cbitmap.iter_ns_per_row", p.perUnit("cbitmap.Iter"))
	h.set("iomodel.pread_ns_per_block", p.perUnit("iomodel.pread"))
	h.set("iomodel.mmap_ns_per_block", p.perUnit("iomodel.mmap"))
	h.set("iomodel.cached_ns_per_block", p.perUnit("iomodel.cached"))
	h.set("core.plan_ns_per_query", p.perUnit("core.PlanQuery"))
	h.set("core.query_mem_p50_us", p.pct("secidx.Query(mem)", 50))
	h.readCountMetrics(tot, exact.N)
	h.setupMetrics(inst, rows)
}

// probe replays the sampled requests of the traced phase through the layers.
func (in *pointInputs) probe(h *harness, inst *instance, ph *pointPhase, ex summary) error {
	p := newProbes(h.tr)
	twin, err := core.BuildOptimal(iomodel.NewDisk(iomodel.Config{}), inst.col, core.OptimalOptions{})
	if err != nil {
		return fmt.Errorf("plan twin: %w", err)
	}
	bt, err := newBlockTwin(inst.path, h.opt.seed)
	if err != nil {
		return fmt.Errorf("block twin: %w", err)
	}
	defer bt.close()
	for _, s := range ph.sampled {
		var res *secidx.Result
		p.run(s.req, s.root, "secidx.Query(mem)", 1, func() { res, _, err = inst.mem.Query(s.lo, s.hi) })
		if err != nil {
			return err
		}
		a := prepAnswer(int64(in.n), answerParts(int64(in.n), res.Rows()))
		rp := h.tr.start(s.req, s.root, "replay")
		p.run(s.req, rp, "iomodel.pread", int64(s.reads), func() { bt.read(bt.pread, s.reads) })
		p.run(s.req, rp, "core.PlanQuery", 1, func() {
			if _, _, err := twin.PlanQuery(index.Range{Lo: s.lo, Hi: s.hi}); err != nil {
				panic(err)
			}
		})
		p.decode(s.req, rp, a)
		h.tr.end(rp)
		p.union(s.req, s.root, a)
		p.nested(s.req, s.root, a, res.ForEach)
	}
	p.sweep(bt, 1024)

	// The same ranges asked exactly, for what the approximation saves.
	var exactBits int64
	for _, op := range in.ops {
		if op.approx {
			_, st, err := inst.o.Static.Query(op.lo, op.hi)
			if err != nil {
				return err
			}
			exactBits += st.BitsRead
		}
	}
	h.set("core.approx_bits_frac", float64(ph.approxBits)/float64(max(exactBits, 1)))
	h.staticLayerMetrics(p, inst, in.n, ex, ph.tot)
	h.processMetrics(ph.usage, len(in.ops), ex.PerSec)
	h.info("probed_requests", len(ph.sampled))
	return nil
}
