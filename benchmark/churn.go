package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	secidx "repro"
	"repro/internal/cbitmap"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/iomodel"
	"repro/internal/wal"
	"repro/internal/workload"
)

// dynamic-churn: one client mixing changes, deletes, appends and 4-key
// queries on a durable dynamic handle with grouped sync (one fsync per
// syncWindow writes, see ingest.go for why) and a checkpoint every so many
// writes; then recovery from the files as a crash would leave them.

const (
	churnRows  = 32768
	churnSigma = 256
	churnOps   = 50000 // at -seconds 10
	// churnCheckpoints is how many checkpoint cycles the timed phase spans,
	// whatever its length. The phase ends half a cycle after the last one, so
	// that recovery has a log suffix to replay.
	churnCheckpoints = 5
)

type churnKind uint8

const (
	opChange churnKind = iota
	opDelete
	opAppend
	opQuery
)

type churnOp struct {
	kind   churnKind
	row    int64  // change, delete
	ch     uint32 // change, append
	lo, hi uint32 // query
}

type churnInputs struct {
	n             int
	base          workload.Column
	ops           []churnOp
	writes        int
	checkpointOps int
	hash          uint64
}

// genChurn makes the operation list: half changes, a tenth deletes, a fifth
// appends, a fifth queries, in a seeded order; changes and deletes name rows
// that are live at that point of the list; new keys continue the column's
// own zipf draw.
func genChurn(h *harness) *churnInputs {
	in := &churnInputs{n: h.rows(churnRows)}
	total := h.ops(churnOps, 200)
	kinds := make([]churnKind, total)
	for i := range kinds {
		switch d := i % 10; {
		case d < 5:
			kinds[i] = opChange
		case d < 6:
			kinds[i] = opDelete
		case d < 8:
			kinds[i] = opAppend
		default:
			kinds[i] = opQuery
		}
	}
	rng := rngFor(h.opt.seed, "churn-ops")
	rng.Shuffle(total, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	full := zipfColumn(in.n+total, churnSigma, 1.0, h.opt.seed)
	in.base = workload.Column{X: full.X[:in.n], Sigma: churnSigma}
	keys := full.X[in.n:]
	queries := balancedRanges(rng, total/5+1, churnSigma, 4, 4)
	live := make([]int64, in.n)
	for i := range live {
		live[i] = int64(i)
	}
	rows := int64(in.n)
	hash := newOpHash()
	nq := 0
	for i, k := range kinds {
		op := churnOp{kind: k}
		switch k {
		case opChange:
			op.row, op.ch = live[rng.Intn(len(live))], keys[i]
		case opDelete:
			j := rng.Intn(len(live))
			op.row = live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		case opAppend:
			op.ch = keys[i]
			live = append(live, rows)
			rows++
		case opQuery:
			op.lo, op.hi = queries[nq].Lo, queries[nq].Hi
			nq++
		}
		if k != opQuery {
			in.writes++
		}
		hash.add(uint64(k), uint64(op.row), uint64(op.ch), uint64(op.lo), uint64(op.hi))
		in.ops = append(in.ops, op)
	}
	in.checkpointOps = max(1, in.writes*2/(2*churnCheckpoints+1))
	in.hash = hash.h
	return in
}

func (in *churnInputs) openOptions() secidx.OpenOptions {
	return secidx.OpenOptions{WAL: &secidx.WALOptions{
		Policy: secidx.SyncGrouped, GroupOps: syncWindow, CheckpointOps: in.checkpointOps, CheckpointBytes: -1,
	}}
}

func (in *churnInputs) setup(dir string) (*instance, error) {
	_, inst, err := persist(filepath.Join(dir, "dynamic.idx"), in.openOptions(), func() (*secidx.DynamicIndex, error) {
		return secidx.BuildDynamic(in.base.X, churnSigma, secidx.Options{})
	})
	return inst, err
}

// churnTwin mirrors the write path's layers: a real log file with the
// handle's grouped sync, and a core.Dynamic on a memory device fed the same
// stream.
type churnTwin struct {
	log  *wal.Writer
	disk *iomodel.Disk
	dx   *core.Dynamic
}

func newChurnTwin(dir string, base workload.Column) (*churnTwin, error) {
	f, err := os.Create(filepath.Join(dir, "twin.wal"))
	if err != nil {
		return nil, err
	}
	tw := &churnTwin{disk: iomodel.NewDisk(iomodel.Config{})}
	if tw.log, err = wal.Create(f, container.KindDynamic, 0, wal.Policy{Mode: wal.SyncWindow, WindowOps: syncWindow}); err != nil {
		f.Close()
		return nil, err
	}
	col := workload.Column{X: append([]uint32(nil), base.X...), Sigma: base.Sigma}
	if tw.dx, err = core.BuildDynamic(tw.disk, col, core.DynamicOptions{}); err != nil {
		tw.log.Close()
		return nil, err
	}
	return tw, nil
}

// payload is the log record of a write: opcode, then its operands.
func (op churnOp) payload() []byte {
	var e container.Encoder
	switch op.kind {
	case opAppend:
		e.U(1)
		e.U(uint64(op.ch))
	case opChange:
		e.U(2)
		e.U(uint64(op.row))
		e.U(uint64(op.ch))
	case opDelete:
		e.U(3)
		e.U(uint64(op.row))
	}
	return e.Bytes()
}

// call returns the public write the operation stands for.
func (op churnOp) call(ix *secidx.DynamicIndex) (name string, call func() error) {
	switch op.kind {
	case opChange:
		return "secidx.DynamicIndex.Change", func() error { _, err := ix.Change(op.row, op.ch); return err }
	case opDelete:
		return "secidx.DynamicIndex.Delete", func() error { _, err := ix.Delete(op.row); return err }
	}
	return "secidx.DynamicIndex.Append", func() error { _, err := ix.Append(op.ch); return err }
}

func (tw *churnTwin) apply(op churnOp) {
	var err error
	switch op.kind {
	case opChange:
		_, err = tw.dx.Change(op.row, op.ch)
	case opDelete:
		_, err = tw.dx.Delete(op.row)
	case opAppend:
		_, err = tw.dx.Append(op.ch)
	}
	if err != nil {
		panic(err)
	}
}

type churnPhase struct {
	write, query    series
	tot             readTotals
	checked         int
	usage           *phaseUsage
	stallsNS        []int64 // latency of the writes that crossed a checkpoint boundary
	checkpointBytes int64
	model           []uint32 // the column after the phase, deleted rows as deadKey
}

// runPhase runs the operation list against the handle, keeping the column
// model the oracle scans in step with it. With a twin, every write is also
// applied to it, and every k-th operation is replayed layer by layer.
func (in *churnInputs) runPhase(h *harness, inst *instance, tr *tracer, p *probes, tw *churnTwin) *churnPhase {
	defer h.stage("timed phase")()
	ix := inst.o.Dynamic
	ph := &churnPhase{model: append(make([]uint32, 0, in.n+len(in.ops)/5), in.base.X...)}
	rng := rngFor(h.opt.seed, "churn-sample")
	// Picked by position in the whole list, which the shuffle made independent
	// of the kind: 1 in 40 of the queries, and of everything else.
	check := newSampler(rng, len(in.ops)/5, 40, 16)
	probe := newSampler(rng, len(in.ops), max(1, len(in.ops)/2000), 0)
	const rounds = 5
	writes := 0
	ph.usage = beginUsage()
	for i, op := range in.ops {
		if i%(len(in.ops)/rounds+1) == 0 {
			ph.write.mark()
			ph.query.mark()
		}
		req := int64(i + 1)
		if op.kind == opQuery {
			id := tr.start(req, 0, "secidx.DynamicIndex.Query")
			t0 := time.Now()
			res, st, err := ix.Query(op.lo, op.hi)
			d := time.Since(t0)
			tr.end(id)
			ph.query.add(d)
			if err != nil {
				h.failf("query [%d,%d]: %v", op.lo, op.hi, err)
				continue
			}
			ph.tot.add(st, res)
			if check.pick(i) {
				h.checkExact("dynamic-churn", ph.model, op.lo, op.hi, res)
				ph.checked++
			}
			if tw != nil && probe.pick(i) {
				rp := tr.start(req, id, "replay")
				var bm *cbitmap.Bitmap
				p.run(req, rp, "core.Dynamic.Query", 1, func() {
					b, _, err := tw.dx.Query(index.Range{Lo: op.lo, Hi: op.hi})
					if err != nil {
						panic(err)
					}
					bm = b
				})
				tr.end(rp)
				n := int64(len(ph.model))
				p.nested(req, id, prepAnswer(n, answerParts(n, bm.Positions())), res.ForEach)
			}
			continue
		}
		name, call := op.call(ix)
		id := tr.start(req, 0, name)
		t0 := time.Now()
		err := call()
		d := time.Since(t0)
		tr.end(id)
		ph.write.add(d)
		if err != nil {
			h.failf("%s: %v", name, err)
			continue
		}
		writes++
		switch op.kind {
		case opChange:
			ph.model[op.row] = op.ch
		case opDelete:
			ph.model[op.row] = deadKey
		case opAppend:
			ph.model = append(ph.model, op.ch)
		}
		if tr != nil && writes%in.checkpointOps == 0 {
			ph.stallsNS = append(ph.stallsNS, int64(d))
			ph.checkpointBytes += fileSize(inst.path)
		}
		if tw == nil {
			continue
		}
		if !probe.pick(i) {
			tw.apply(op)
			continue
		}
		rp := tr.start(req, id, "replay")
		p.run(req, rp, "wal.Append(grouped)", 1, func() {
			if _, err := tw.log.Append(op.payload()); err != nil {
				panic(err)
			}
		})
		p.run(req, rp, "core.Dynamic.write", 1, func() { tw.apply(op) })
		tr.end(rp)
	}
	ph.usage.finish()
	h.attempt(len(in.ops))
	return ph
}

func runDynamicChurn(h *harness) error {
	in := genChurn(h)
	if err := h.requireSpace(in.n + len(in.ops)); err != nil {
		return err
	}
	h.info("rows", in.n)
	h.info("sigma", churnSigma)
	h.info("ops_total", len(in.ops))
	h.info("ops_write", in.writes)
	h.info("ops_exact", len(in.ops)-in.writes)
	h.info("checkpoint_ops", in.checkpointOps)
	h.info("op_list_hash", fmt.Sprintf("%016x", in.hash))
	inst, err := h.setupMedian(h.reps(3), in.setup)
	if err != nil {
		return err
	}
	defer func() {
		if inst != nil {
			inst.close()
		}
	}()
	h.info("container_bytes", inst.bytes)

	ph := in.runPhase(h, inst, nil, nil, nil)
	var p *probes
	var tw *churnTwin
	if h.opt.trace {
		// The writes changed the index: the traced pass starts from a fresh
		// instance of the same inputs.
		h.untracedPerSec = ph.write.summarize().PerSec
		if err := inst.close(); err != nil {
			return err
		}
		if inst, err = h.setupMedian(1, in.setup); err != nil {
			return err
		}
		p = newProbes(h.tr)
		if tw, err = newChurnTwin(h.dir, in.base); err != nil {
			return fmt.Errorf("churn twin: %w", err)
		}
		defer tw.log.Close()
		ph = in.runPhase(h, inst, h.tr, p, tw)
	}
	h.info("answers_checked", ph.checked)
	if got := inst.o.LastSeq(); got != uint64(in.writes) {
		h.failf("LastSeq %d after %d acknowledged writes", got, in.writes)
	}
	wr, qr := ph.write.summarize(), ph.query.summarize()
	h.writeMetrics(wr)
	h.info("write_ladder_us", ph.write.ladder())
	h.readMetrics(qr, qr.Rates, ph.tot, qr.N)

	// Recovery from the files as they are, the writing handle still open.
	logPath := inst.path + ".wal"
	logBytes := fileSize(logPath)
	if err := h.recoverMedian(h.reps(5), inst.path, in.openOptions, func(o *secidx.Opened) error {
		if o.Dynamic == nil {
			return fmt.Errorf("reopened container is not a dynamic index")
		}
		if got := o.LastSeq(); got != uint64(in.writes) {
			return fmt.Errorf("recovered LastSeq %d, %d writes were acknowledged", got, in.writes)
		}
		h.checkRanges("recovered", ph.model, churnSigma, 16, o.Dynamic.Query)
		return nil
	}); err != nil {
		return err
	}
	if p != nil {
		h.walMetrics(p, logPath)
	}
	// The final checkpoint over the rows that are still live.
	if err := inst.o.Checkpoint(); err != nil {
		return fmt.Errorf("final checkpoint: %w", err)
	}
	size := fileSize(inst.path)
	h.info("final_container_bytes", size)
	h.set("bits_per_row", float64(size*8)/float64(max(inst.o.Dynamic.LiveLen(), 1)))
	if !h.opt.trace {
		return nil
	}

	// Per-layer figures of the traced pass.
	for i := 0; i < 256; i++ {
		tw.disk.Freeze()
		p.cowFirstWrite(tw.disk, 0, 0)
	}
	h.set("iomodel.cow_first_write_us", p.pct("iomodel.cow_first_write", 50))
	h.set("iomodel.image_bytes", float64(tw.disk.AllocatedBits()/8))
	h.set("core.dyn_write_ns_per_op", p.perUnit("core.Dynamic.write"))
	h.set("core.dyn_query_p50_us", p.pct("core.Dynamic.Query", 50))
	h.set("core.dyn_stall_max_ms", wr.MaxUS/1e3)
	over := 0
	for _, ns := range ph.write.ns {
		if ns > int64(10*time.Millisecond) {
			over++
		}
	}
	h.set("core.dyn_stalls_over_10ms", float64(over))
	syncs := p.probeSyncs(h, 512)
	h.set("wal.sync_us_p50", syncs.P50)
	h.set("wal.sync_us_p99", syncs.Tail)
	h.set("durable.append_self_us", wr.P50-p.pct("wal.Append(grouped)", 50)-p.pct("core.Dynamic.write", 50))
	if len(ph.stallsNS) > 0 {
		h.set("durable.checkpoint_stall_ms_p50", float64(percentile(sortedCopy(ph.stallsNS), 50))/1e6)
	}
	h.set("durable.checkpoint_count", float64(len(ph.stallsNS)))
	h.set("durable.checkpoint_bytes", float64(ph.checkpointBytes))
	walBytes := h.get("wal.bytes_per_op") * float64(in.writes)
	h.set("durable.write_amp", (walBytes+float64(ph.checkpointBytes))/float64(4*in.writes))
	h.set("durable.recover_replay_ops", float64(in.writes%in.checkpointOps))
	h.info("log_bytes_at_recovery", logBytes)
	h.set("bitio.read_ns_per_word", p.perUnit("bitio.ReadBits"))
	h.set("gamma.decode_ns_per_int", p.perUnit("gamma.Read"))
	h.set("cbitmap.iter_ns_per_row", p.perUnit("cbitmap.Iter"))
	h.readCountMetrics(ph.tot, qr.N)
	h.setupMetrics(inst, in.n)
	h.processMetrics(ph.usage, len(in.ops), wr.PerSec)
	h.info("probed_requests", p.count("core.Dynamic.write")+p.count("core.Dynamic.Query"))
	return nil
}

// probeSyncs measures wal.Writer.Sync after one record on a real file, n
// times: what the grouped policy pays once per window.
func (p *probes) probeSyncs(h *harness, n int) summary {
	var s series
	f, err := os.Create(filepath.Join(h.dir, "sync-probe.wal"))
	if err != nil {
		h.failf("sync probe: %v", err)
		return summary{}
	}
	w, err := wal.Create(f, container.KindDynamic, 0, wal.Policy{Mode: wal.SyncManual})
	if err != nil {
		f.Close()
		h.failf("sync probe: %v", err)
		return summary{}
	}
	defer w.Close()
	for i := 0; i < n; i++ {
		if _, err := w.Append(churnOp{kind: opAppend, ch: uint32(i % churnSigma)}.payload()); err != nil {
			h.failf("sync probe: %v", err)
			break
		}
		s.add(p.run(0, 0, "wal.Sync", 1, func() { err = w.Sync() }))
		if err != nil {
			h.failf("sync probe: %v", err)
			break
		}
	}
	return s.summarize()
}
