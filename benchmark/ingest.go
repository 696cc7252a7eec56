package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	secidx "repro"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/iomodel"
	"repro/internal/wal"
	"repro/internal/workload"
)

// ingest-snapshot: one writer appending to a durable, concurrent append
// handle, beside one reader that every 5 ms pins a snapshot, asks a 4-key
// range and releases it; then recovery from the files as a crash would leave
// them.
//
// The log syncs once per syncWindow operations, not once per operation: this
// sandbox's fsync time moves two- to five-fold from one run to the next, and
// with one fsync per write that movement was most of write_p50_us and
// write_per_s. With the window, the log write, the apply and the epoch
// publication are on every write's path and the fsync on 1 in 256, below the
// p99; the fsync itself is the traced run's wal.sync_us_*.

const (
	ingestRows    = 262144
	ingestSigma   = 256
	ingestAppends = 12000 // at -seconds 10
	readerPeriod  = 5 * time.Millisecond
	syncWindow    = 256 // GroupOps of both write workloads
)

type ingestInputs struct {
	n       int
	full    workload.Column // the base rows followed by the rows to append
	reads   []secidx.Range  // the paced reader's requests, in order
	hash    uint64
	appends int
}

func genIngest(h *harness) *ingestInputs {
	in := &ingestInputs{n: h.rows(ingestRows), appends: h.ops(ingestAppends, 64)}
	in.full = zipfColumn(in.n+in.appends, ingestSigma, 1.0, h.opt.seed)
	// More requests than the reader comes due for: the phase ends with the
	// writer.
	in.reads = balancedRanges(rngFor(h.opt.seed, "ingest-reads"), max(64, in.appends/2), ingestSigma, 4, 4)
	hash := newOpHash()
	for _, ch := range in.full.X[in.n:] {
		hash.add(0, uint64(ch))
	}
	hash.addRanges(1, in.reads)
	in.hash = hash.h
	return in
}

func ingestOpenOptions() secidx.OpenOptions {
	return secidx.OpenOptions{
		WAL:        &secidx.WALOptions{Policy: secidx.SyncGrouped, GroupOps: syncWindow, CheckpointOps: 0, CheckpointBytes: -1},
		Concurrent: true,
	}
}

func (in *ingestInputs) setup(dir string) (*instance, error) {
	_, inst, err := persist(filepath.Join(dir, "append.idx"), ingestOpenOptions(), func() (*secidx.AppendIndex, error) {
		return secidx.BuildAppend(in.full.X[:in.n], ingestSigma, secidx.Options{})
	})
	return inst, err
}

// ingestTwin mirrors the write path's layers one by one: a real log file,
// a core.AppendIndex on a memory device fed the same stream, and that
// device's freeze and clone.
type ingestTwin struct {
	log  *wal.Writer
	disk *iomodel.Disk
	ax   *core.AppendIndex
}

func newIngestTwin(dir string, base workload.Column) (*ingestTwin, error) {
	f, err := os.Create(filepath.Join(dir, "twin.wal"))
	if err != nil {
		return nil, err
	}
	tw := &ingestTwin{disk: iomodel.NewDisk(iomodel.Config{})}
	if tw.log, err = wal.Create(f, container.KindAppend, 0, wal.Policy{Mode: wal.SyncWindow, WindowOps: syncWindow}); err != nil {
		f.Close()
		return nil, err
	}
	if tw.ax, err = core.BuildAppendIndex(tw.disk, base, core.AppendOptions{}); err != nil {
		tw.log.Close()
		return nil, err
	}
	return tw, nil
}

// appendPayload is the log record of Append(ch): opcode 1, then the key.
func appendPayload(ch uint32) []byte {
	var e container.Encoder
	e.U(1)
	e.U(uint64(ch))
	return e.Bytes()
}

type ingestPhase struct {
	write, read, late series // read: the reader's requests, call to return
	readDue           series // the same from their due time: read + late
	tot               readTotals
	checks            []ingestCheck
	usage             *phaseUsage
	allocBytes        []float64
}

type ingestCheck struct {
	version uint64
	lo, hi  uint32
	res     *secidx.Result
}

// runPhase runs the writer and the paced reader side by side until the
// writer has appended its list. With a twin, every append is also applied to
// it, and every k-th one is replayed layer by layer.
func (in *ingestInputs) runPhase(h *harness, ix *secidx.AppendIndex, tr *tracer, p *probes, tw *ingestTwin) *ingestPhase {
	defer h.stage("timed phase")()
	ph := &ingestPhase{}
	rng := rngFor(h.opt.seed, "ingest-sample")
	check := newSampler(rng, len(in.reads), 40, 16)
	probe := newSampler(rng, in.appends, max(1, in.appends/1000), 0)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	ph.usage = beginUsage()
	t0 := time.Now()
	wg.Add(1)
	go func() { // the paced reader
		defer wg.Done()
		for i := 0; i < len(in.reads); i++ {
			due := t0.Add(time.Duration(i) * readerPeriod)
			if wait := time.Until(due); wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
			}
			if i%400 == 0 {
				ph.read.mark()
			}
			q := in.reads[i]
			req := int64(in.appends + i + 1)
			id := tr.start(req, 0, "secidx.Snapshot.Query")
			s0 := time.Now()
			ph.late.add(s0.Sub(due))
			snap, err := ix.Snapshot()
			if err != nil {
				h.failf("snapshot: %v", err)
				return
			}
			res, st, err := snap.Query(q.Lo, q.Hi)
			ver := snap.Version()
			snap.Release()
			end := time.Now()
			tr.end(id)
			ph.read.add(end.Sub(s0))
			ph.readDue.add(end.Sub(due))
			h.attempt(1)
			if err != nil {
				h.failf("snapshot query [%d,%d]: %v", q.Lo, q.Hi, err)
				continue
			}
			ph.tot.add(st, res)
			if check.pick(i) {
				ph.checks = append(ph.checks, ingestCheck{ver, q.Lo, q.Hi, res})
			}
		}
	}()
	const rounds = 5
	for i, ch := range in.full.X[in.n:] {
		if i%(in.appends/rounds+1) == 0 {
			ph.write.mark()
		}
		req := int64(i + 1)
		id := tr.start(req, 0, "secidx.AppendIndex.Append")
		s0 := time.Now()
		_, err := ix.Append(ch)
		d := time.Since(s0)
		tr.end(id)
		ph.write.add(d)
		if err != nil {
			h.failf("append %d: %v", i, err)
			continue
		}
		if tw == nil {
			continue
		}
		if !probe.pick(i) {
			if _, err := tw.ax.Append(ch); err != nil {
				panic(err)
			}
			continue
		}
		rp := tr.start(req, id, "replay")
		p.run(req, rp, "wal.Append(grouped)", 1, func() {
			if _, err := tw.log.Append(appendPayload(ch)); err != nil {
				panic(err)
			}
		})
		p.run(req, rp, "core.AppendIndex.Append", 1, func() {
			if _, err := tw.ax.Append(ch); err != nil {
				panic(err)
			}
		})
		measureAlloc := len(ph.allocBytes) < 64
		var m0, m1 runtime.MemStats
		if measureAlloc {
			runtime.ReadMemStats(&m0)
		}
		p.run(req, rp, "epoch.publish", 1, func() {
			if _, err := tw.ax.CloneReadOnly(tw.disk.Freeze()); err != nil {
				panic(err)
			}
		})
		if measureAlloc {
			runtime.ReadMemStats(&m1)
			ph.allocBytes = append(ph.allocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		}
		p.cowFirstWrite(tw.disk, req, rp)
		tr.end(rp)
	}
	close(stop)
	wg.Wait()
	ph.usage.finish()
	h.attempt(in.appends)
	return ph
}

func runIngestSnapshot(h *harness) error {
	in := genIngest(h)
	if err := h.requireSpace(in.n + in.appends); err != nil {
		return err
	}
	h.info("rows", in.n)
	h.info("sigma", ingestSigma)
	h.info("ops_write", in.appends)
	h.info("reader_period_ms", readerPeriod.Seconds()*1e3)
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
	size := inst.bytes
	h.info("container_bytes", size)

	ph := in.runPhase(h, inst.o.Append, nil, nil, nil)
	var p *probes
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
		tw, err := newIngestTwin(h.dir, workload.Column{X: in.full.X[:in.n], Sigma: ingestSigma})
		if err != nil {
			return fmt.Errorf("ingest twin: %w", err)
		}
		defer tw.log.Close()
		ph = in.runPhase(h, inst.o.Append, h.tr, p, tw)
		h.set("iomodel.image_bytes", float64(tw.disk.AllocatedBits()/8))
	}
	for _, c := range ph.checks {
		h.checkExact("snapshot", in.full.X[:in.n+int(c.version)], c.lo, c.hi, c.res)
	}
	h.info("answers_checked", len(ph.checks))
	if got := inst.o.LastSeq(); got != uint64(in.appends) {
		h.failf("LastSeq %d after %d acknowledged appends", got, in.appends)
	}

	wr, rd := ph.write.summarize(), ph.read.summarize()
	h.writeMetrics(wr)
	h.info("write_ladder_us", ph.write.ladder())
	h.info("query_ladder_us", ph.read.ladder())
	h.info("query_from_due_ladder_us", ph.readDue.ladder())
	h.readMetrics(rd, rd.Rates, ph.tot, rd.N)
	late := ph.late.summarize()
	h.info("reader_late_p50_us", late.P50)
	h.info("reader_late_tail_us", late.Tail)
	h.set("bits_per_row", float64(size*8)/float64(in.n))

	// Recovery from the files as they are, the writing handle still open.
	err = h.recoverMedian(h.reps(9), inst.path, ingestOpenOptions, func(o *secidx.Opened) error {
		if o.Append == nil {
			return fmt.Errorf("reopened container is not an append index")
		}
		if got := o.LastSeq(); got != uint64(in.appends) {
			return fmt.Errorf("recovered LastSeq %d, %d appends were acknowledged", got, in.appends)
		}
		h.checkRanges("recovered", in.full.X, ingestSigma, 16, o.Append.Query)
		return nil
	})
	if err != nil || !h.opt.trace {
		return err
	}

	// Per-layer figures of the traced pass.
	logPath := inst.path + ".wal"
	h.walMetrics(p, logPath)
	syncs := p.probeSyncs(h, 512)
	h.set("wal.sync_us_p50", syncs.P50)
	h.set("wal.sync_us_p99", syncs.Tail)
	h.set("core.append_ns_per_op", p.perUnit("core.AppendIndex.Append"))
	h.set("epoch.publish_us_p50", p.pct("epoch.publish", 50))
	h.set("epoch.publish_alloc_bytes", median(ph.allocBytes))
	h.set("iomodel.cow_first_write_us", p.pct("iomodel.cow_first_write", 50))
	for i := 0; i < 2000; i++ {
		p.run(0, 0, "epoch.pin+release", 1, func() {
			if s, err := inst.o.Append.Snapshot(); err == nil {
				s.Release()
			}
		})
	}
	h.set("epoch.pin_release_ns", p.perUnit("epoch.pin+release"))
	h.set("epoch.reader_late_p99_us", late.Tail)
	h.set("durable.append_self_us", wr.P50-p.pct("wal.Append(grouped)", 50)-p.pct("core.AppendIndex.Append", 50)-
		p.pct("epoch.publish", 50)-p.pct("iomodel.cow_first_write", 50))
	h.set("durable.write_amp", float64(fileSize(logPath))/float64(4*in.appends))
	h.set("durable.recover_replay_ops", float64(in.appends))
	h.readCountMetrics(ph.tot, rd.N)
	h.setupMetrics(inst, in.n)
	h.processMetrics(ph.usage, in.appends, wr.PerSec)
	h.info("probed_requests", p.count("epoch.publish"))
	return nil
}

// writeMetrics reports the write figures of a phase. They are per-layer
// metrics (see README.md, "Where this departs from the issue"); an untraced
// run prints them among its notes.
func (h *harness) writeMetrics(wr summary) {
	h.set("durable.write_p50_us", wr.P50)
	h.set("durable.write_p99_us", wr.Tail)
	h.set("durable.write_per_s", wr.PerSec)
	h.info("write_p50_us", wr.P50)
	h.info("write_per_s", wr.PerSec)
	h.info("write_samples", wr.N)
	h.info("write_tail_percentile", wr.TailPct)
}

// walMetrics reports the log figures both write workloads derive from the
// final log: its size per logged operation, wal.Scan's rate over it, and
// wal.Append's cost for the same payloads under manual sync.
func (h *harness) walMetrics(p *probes, logPath string) {
	data, err := os.ReadFile(logPath)
	if err != nil {
		h.failf("reading the log: %v", err)
		return
	}
	var res *wal.ScanResult
	p.run(0, 0, "wal.Scan", int64(len(data)), func() { res, err = wal.Scan(data) })
	if err != nil {
		h.failf("scanning the log: %v", err)
		return
	}
	h.set("wal.scan_mb_per_s", float64(len(data))/1e6/(p.perUnit("wal.Scan")*float64(len(data))/1e9))
	if len(res.Recs) > 0 {
		h.set("wal.bytes_per_op", float64(len(data))/float64(len(res.Recs)))
	}
	f, err := os.Create(filepath.Join(h.dir, "append-probe.wal"))
	if err != nil {
		h.failf("log probe: %v", err)
		return
	}
	w, err := wal.Create(f, res.Kind, res.StartSeq, wal.Policy{Mode: wal.SyncManual})
	if err != nil {
		f.Close()
		h.failf("log probe: %v", err)
		return
	}
	for _, rec := range res.Recs {
		p.run(0, 0, "wal.Append", 1, func() { _, err = w.Append(rec.Payload) })
		if err != nil {
			break
		}
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		h.failf("log probe: %v", err)
	}
	h.set("wal.append_ns_per_rec", p.perUnit("wal.Append"))
}
