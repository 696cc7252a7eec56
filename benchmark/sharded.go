package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	secidx "repro"
	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// scan-wide and serve-overlap share one sharded container: 4 shards over a
// zipf column, read through mmap by one client asking wide ranges
// (scan-wide), or through pread and a block cache smaller than the file by 8
// clients asking hot overlapping 16-key ranges of the real Server
// (serve-overlap).

const (
	shardedRows    = 1048576
	shardedSigma   = 1024
	shardedShards  = 4
	scanQueries    = 1600 // at -seconds 10
	serveClients   = 8
	servePerClient = 500 // at -seconds 10
	// serveCacheBlocks per shard: 4 x 128 x 4 KiB = 2 MiB of cache against a
	// container of about 11 MB; the hot ranges fit, the file does not.
	serveCacheBlocks = 128
	countBatch       = 32 // the count pass's batch: ServerConfig's default MaxBatch
)

// setupSharded generates the column, builds the sharded index over it,
// persists and reopens it, and puts a server in front when the workload
// serves.
func setupSharded(h *harness, dir string, n int, oo secidx.OpenOptions, serveIt bool) (*instance, error) {
	col := zipfColumn(n, shardedSigma, 1.0, h.opt.seed)
	_, inst, err := persist(filepath.Join(dir, "sharded.idx"), oo, func() (*secidx.ShardedIndex, error) {
		return secidx.BuildSharded(col.X, shardedSigma, secidx.ShardOptions{Shards: shardedShards})
	})
	if err != nil {
		return nil, err
	}
	inst.col = col
	if serveIt {
		if inst.srv, err = inst.o.Sharded.Serve(secidx.ServerConfig{}); err != nil {
			inst.o.Close()
			return nil, err
		}
	}
	return inst, nil
}

// shardTwin is an in-memory shard.Build over the same column: the probes'
// stand-in for the per-shard pipelines behind Sharded.Query.
type shardTwin struct {
	parts []shard.Part
	n     int64
}

func newShardTwin(col workload.Column) (*shardTwin, error) {
	sx, err := shard.Build(col.X, col.Sigma, shard.Options{Shards: shardedShards})
	if err != nil {
		return nil, err
	}
	return &shardTwin{parts: sx.Parts(), n: int64(len(col.X))}, nil
}

// replay feeds one sampled request to the layers behind a sharded query:
// the device reads (in the given mode), the per-shard plans, the decode of
// the per-shard answers and their union. The per-shard queries themselves
// are timed beside the replay, for the fan-out figures. It returns the
// replay span's id.
func (tw *shardTwin) replay(h *harness, p *probes, bt *blockTwin, mode string, s sampledQuery) (replayID int64) {
	r := index.Range{Lo: s.lo, Hi: s.hi}
	shifted := make([]cbitmap.Shifted, len(tw.parts))
	var slowest, sum time.Duration
	for i, pt := range tw.parts {
		d := p.run(s.req, s.root, "shard.part", 1, func() {
			bm, _, err := pt.Ax.Query(r)
			if err != nil {
				panic(err)
			}
			shifted[i] = cbitmap.Shifted{Bm: bm, Off: pt.Start}
		})
		slowest = max(slowest, d)
		sum += d
	}
	a := prepAnswer(tw.n, shifted)
	rp := h.tr.start(s.req, s.root, "replay")
	fd := bt.pread
	switch mode {
	case "iomodel.mmap":
		fd = bt.mmap
	case "iomodel.cached":
		fd = bt.cached
	}
	p.run(s.req, rp, mode, int64(s.reads), func() { bt.read(fd, s.reads) })
	p.run(s.req, rp, "core.PlanQuery", int64(len(tw.parts)), func() {
		for _, pt := range tw.parts {
			if _, _, err := pt.Ax.PlanQuery(r); err != nil {
				panic(err)
			}
		}
	})
	p.decode(s.req, rp, a)
	unionNS := p.union(s.req, rp, a)
	h.tr.end(rp)
	var union *cbitmap.Bitmap
	union, _ = cbitmap.UnionAll(tw.n, shifted...)
	p.nested(s.req, s.root, a, func(yield func(int64) bool) {
		it := union.Iter()
		for pos, ok := it.Next(); ok && yield(pos); pos, ok = it.Next() {
		}
	})
	if s.rootNS > 0 && sum > 0 {
		p.book("shard.fanout_self", s.rootNS-slowest-unionNS, 1)
		p.note("shard.skew", float64(slowest)/(float64(sum)/float64(len(tw.parts))))
	}
	return rp
}

func (h *harness) shardMetrics(p *probes) {
	h.set("shard.fanout_self_us", p.pct("shard.fanout_self", 50))
	h.set("shard.skew_frac", median(p.notes["shard.skew"]))
}

// ---- scan-wide ----

type scanInputs struct {
	n    int
	qs   []secidx.Range
	hash uint64
}

func genScanWide(h *harness) *scanInputs {
	in := &scanInputs{n: h.rows(shardedRows)}
	in.qs = balancedRanges(rngFor(h.opt.seed, "scan-ranges"), h.ops(scanQueries, 64), shardedSigma, 64, 192)
	hash := newOpHash()
	hash.addRanges(0, in.qs)
	in.hash = hash.h
	return in
}

type scanPhase struct {
	exact   series
	tot     readTotals
	checks  []checkedAnswer
	sampled []sampledQuery
	usage   *phaseUsage
	wall    []float64 // per round: queries per wall second
}

func (in *scanInputs) runPhase(h *harness, ix *secidx.ShardedIndex, tr *tracer) *scanPhase {
	defer h.stage("timed phase")()
	ph := &scanPhase{}
	for _, q := range in.qs[:len(in.qs)/20] {
		ix.Query(q.Lo, q.Hi)
	}
	rng := rngFor(h.opt.seed, "scan-sample")
	check := newSampler(rng, len(in.qs), 40, 16)
	probe := newSampler(rng, len(in.qs), max(1, len(in.qs)/1000), 0)
	rounds := max(1, min(5, len(in.qs)/1000))
	per := (len(in.qs) + rounds - 1) / rounds
	ph.usage = beginUsage()
	roundStart := time.Now()
	for i, q := range in.qs {
		if i%per == 0 {
			ph.exact.mark()
			if i > 0 {
				ph.wall = append(ph.wall, float64(per)/time.Since(roundStart).Seconds())
				roundStart = time.Now()
			}
		}
		req := int64(i + 1)
		id := tr.start(req, 0, "secidx.ShardedIndex.Query")
		t0 := time.Now()
		res, st, err := ix.Query(q.Lo, q.Hi)
		d := time.Since(t0)
		tr.end(id)
		ph.exact.add(d)
		if err != nil {
			h.failf("query [%d,%d]: %v", q.Lo, q.Hi, err)
			continue
		}
		ph.tot.add(st, res)
		if check.pick(i) {
			ph.checks = append(ph.checks, checkedAnswer{lo: q.Lo, hi: q.Hi, exact: res})
		}
		if tr != nil && probe.pick(i) {
			ph.sampled = append(ph.sampled, sampledQuery{req: req, root: id, lo: q.Lo, hi: q.Hi, reads: st.Reads, rootNS: d})
		}
	}
	last := len(in.qs) - (rounds-1)*per
	ph.wall = append(ph.wall, float64(last)/time.Since(roundStart).Seconds())
	ph.usage.finish()
	h.attempt(len(in.qs))
	return ph
}

func runScanWide(h *harness) error {
	in := genScanWide(h)
	if err := h.requireSpace(in.n); err != nil {
		return err
	}
	h.info("rows", in.n)
	h.info("sigma", shardedSigma)
	h.info("shards", shardedShards)
	h.info("ops_exact", len(in.qs))
	h.info("op_list_hash", fmt.Sprintf("%016x", in.hash))
	oo := secidx.OpenOptions{Mode: secidx.ModeMmap}
	inst, err := h.setupMedian(h.reps(3), func(dir string) (*instance, error) {
		return setupSharded(h, dir, in.n, oo, false)
	})
	if err != nil {
		return err
	}
	defer inst.close()
	size := inst.bytes
	h.info("container_bytes", size)

	ph := in.runPhase(h, inst.o.Sharded, nil)
	if h.opt.trace {
		h.untracedPerSec = median(ph.wall)
		ph = in.runPhase(h, inst.o.Sharded, h.tr)
	}
	ex := ph.exact.summarize()
	h.verify("scan-wide", inst.col.X, ph.checks)
	h.readMetrics(ex, ph.wall, ph.tot, ex.N)
	h.set("bits_per_row", float64(size*8)/float64(in.n))
	if h.opt.trace {
		p := newProbes(h.tr)
		tw, err := newShardTwin(inst.col)
		if err != nil {
			return fmt.Errorf("shard twin: %w", err)
		}
		bt, err := newBlockTwin(inst.path, h.opt.seed)
		if err != nil {
			return fmt.Errorf("block twin: %w", err)
		}
		defer bt.close()
		for _, s := range ph.sampled {
			tw.replay(h, p, bt, "iomodel.mmap", s)
		}
		p.sweep(bt, 1024)
		h.staticLayerMetrics(p, inst, in.n, ex, ph.tot)
		h.shardMetrics(p)
		h.processMetrics(ph.usage, len(in.qs), median(ph.wall))
		h.info("probed_requests", len(ph.sampled))
		return nil
	}
	return nil
}

// ---- serve-overlap ----

type serveInputs struct {
	n       int
	qs      []secidx.Range // client c takes qs[c*per : (c+1)*per]
	per     int
	countQs []secidx.Range // the count pass's own list, same distribution
	hash    uint64
}

func genServeOverlap(h *harness) *serveInputs {
	in := &serveInputs{n: h.rows(shardedRows), per: h.ops(servePerClient, 16)}
	in.qs = hotRanges(rngFor(h.opt.seed, "serve-ranges"), in.per*serveClients, shardedSigma, 16, 1.1)
	// The count pass's order is the same under every seed: which ranges meet
	// in a batch and what the cache holds by then decide its counts.
	in.countQs = hotRanges(rand.New(rand.NewSource(0x5ec1d8)), min(len(in.qs), 40*countBatch), shardedSigma, 16, 1.1)
	hash := newOpHash()
	hash.addRanges(0, in.qs)
	hash.addRanges(1, in.countQs)
	in.hash = hash.h
	return in
}

type servedSample struct {
	sampledQuery
	wait time.Duration
}

type servePhase struct {
	lat, wait, service series
	sizeBits, card     int64
	bitsRead           float64 // each member's share of its batch's bits
	batchSum           int64
	checks             []checkedAnswer
	sampled            []servedSample
	usage              *phaseUsage
	wall               float64
	stats              secidx.ServerStats
	dev                secidx.DeviceStats
}

// runPhase drives the server with 8 closed-loop clients: each submits its
// next request when the previous one is answered.
func (in *serveInputs) runPhase(h *harness, inst *instance, tr *tracer) *servePhase {
	defer h.stage("timed phase")()
	ph := &servePhase{}
	ctx := context.Background()
	for _, q := range in.qs[:len(in.qs)/20] {
		inst.srv.Query(ctx, q.Lo, q.Hi)
	}
	before, devBefore := inst.srv.Stats(), inst.o.Sharded.DeviceStats()
	rng := rngFor(h.opt.seed, "serve-sample")
	check := newSampler(rng, len(in.qs), 40, 16)
	probe := newSampler(rng, len(in.qs), max(1, len(in.qs)/1000), 0)
	var mu sync.Mutex
	var wg sync.WaitGroup
	ph.usage = beginUsage()
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var loc servePhase
			for i := c * in.per; i < (c+1)*in.per; i++ {
				q := in.qs[i]
				req := int64(i + 1)
				id := tr.start(req, 0, "secidx.Server.Query")
				s0 := time.Now()
				sr, err := inst.srv.Query(ctx, q.Lo, q.Hi)
				d := time.Since(s0)
				tr.end(id)
				loc.lat.add(d)
				if err != nil {
					h.failf("served query [%d,%d]: %v", q.Lo, q.Hi, err)
					continue
				}
				if len(sr.Report) > 0 {
					h.failf("served query [%d,%d]: degraded answer", q.Lo, q.Hi)
					continue
				}
				loc.wait.add(sr.Wait)
				loc.service.add(sr.Service)
				loc.sizeBits += int64(sr.Result.SizeBits())
				loc.card += sr.Result.Card()
				loc.bitsRead += float64(sr.Stats.BitsRead) / float64(max(sr.BatchSize, 1))
				loc.batchSum += int64(sr.BatchSize)
				if check.pick(i) {
					loc.checks = append(loc.checks, checkedAnswer{lo: q.Lo, hi: q.Hi, exact: sr.Result})
				}
				if tr != nil && probe.pick(i) {
					loc.sampled = append(loc.sampled, servedSample{
						sampledQuery{req: req, root: id, lo: q.Lo, hi: q.Hi, rootNS: d}, sr.Wait})
				}
			}
			mu.Lock()
			ph.lat.merge(&loc.lat)
			ph.wait.merge(&loc.wait)
			ph.service.merge(&loc.service)
			ph.sizeBits += loc.sizeBits
			ph.card += loc.card
			ph.bitsRead += loc.bitsRead
			ph.batchSum += loc.batchSum
			ph.checks = append(ph.checks, loc.checks...)
			ph.sampled = append(ph.sampled, loc.sampled...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.wall = time.Since(t0).Seconds()
	ph.usage.finish()
	h.attempt(len(in.qs))
	after, devAfter := inst.srv.Stats(), inst.o.Sharded.DeviceStats()
	ph.stats = after
	ph.stats.Admitted -= before.Admitted
	ph.stats.Shed -= before.Shed
	ph.stats.Expired -= before.Expired
	ph.stats.Completed -= before.Completed
	ph.stats.Batches -= before.Batches
	ph.stats.FlushSize -= before.FlushSize
	ph.stats.FlushOverlap -= before.FlushOverlap
	ph.stats.FlushWait -= before.FlushWait
	ph.stats.Reads -= before.Reads
	ph.stats.SharedSaved -= before.SharedSaved
	ph.dev = secidx.DeviceStats{
		BlockReads:  devAfter.BlockReads - devBefore.BlockReads,
		CacheHits:   devAfter.CacheHits - devBefore.CacheHits,
		CacheMisses: devAfter.CacheMisses - devBefore.CacheMisses,
	}
	sort.Slice(ph.sampled, func(i, j int) bool { return ph.sampled[i].req < ph.sampled[j].req })
	return ph
}

// countPass makes the workload's I/O counts repeatable. What the server
// reads for a request depends on which requests happened to share its batch
// and on what the cache held then, and both differ from run to run. So the
// counts come from a pass of their own: a fresh handle on the same file (the
// same cache size, empty), a request list of the same distribution in an
// order no seed changes, cut into consecutive batches of the server's
// MaxBatch, each answered by QueryBatch, one batch at a time. Batching, sharing and caching all act, in a fixed
// order. The served phase's own counts are the traced run's
// serve.blocks_per_request and core.shared_saved_frac.
func (in *serveInputs) countPass(path string, oo secidx.OpenOptions) (tot readTotals, counted int, err error) {
	o, err := secidx.OpenFile(path, oo)
	if err != nil {
		return tot, 0, err
	}
	defer o.Close()
	qs := in.countQs
	for i := 0; i < len(qs); i += countBatch {
		b := qs[i:min(i+countBatch, len(qs))]
		res, st, err := o.Sharded.QueryBatch(b)
		if err != nil {
			return tot, 0, err
		}
		tot.reads += int64(st.Reads)
		tot.bitsRead += st.BitsRead
		for _, r := range res {
			tot.sizeBits += int64(r.SizeBits())
			tot.card += r.Card()
		}
		counted += len(b)
	}
	return tot, counted, nil
}

// stubBackend answers every batch at once with one canned bitmap: what is
// left of a request's latency is the serving layer's own.
type stubBackend struct{ bm *cbitmap.Bitmap }

func (stubBackend) Shards() int { return 1 }

func (b stubBackend) QueryBatch(_ context.Context, rs []index.Range, _ shard.ExecOptions) ([]*cbitmap.Bitmap, index.QueryStats, []shard.ShardError, error) {
	out := make([]*cbitmap.Bitmap, len(rs))
	for i := range out {
		out[i] = b.bm
	}
	return out, index.QueryStats{}, nil, nil
}

// serveSelf measures Submit over the stub backend with the workload's client
// count and request list.
func (in *serveInputs) serveSelf(p *probes) error {
	srv, err := serve.NewServer(stubBackend{bm: cbitmap.MustFromPositions(1024, []int64{1, 5, 9})}, serve.Config{})
	if err != nil {
		return err
	}
	per := min(in.per, 256)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c * in.per; i < c*in.per+per; i++ {
				t0 := time.Now()
				r := srv.Submit(context.Background(), in.qs[i].Lo, in.qs[i].Hi)
				d := time.Since(t0)
				if r.Err == nil {
					mu.Lock()
					p.book("serve.Submit(stub)", d, 1)
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	return srv.Close()
}

func runServeOverlap(h *harness) error {
	in := genServeOverlap(h)
	if err := h.requireSpace(in.n); err != nil {
		return err
	}
	h.info("rows", in.n)
	h.info("sigma", shardedSigma)
	h.info("shards", shardedShards)
	h.info("clients", serveClients)
	h.info("ops_exact", len(in.qs))
	h.info("cache_blocks_per_shard", serveCacheBlocks)
	h.info("op_list_hash", fmt.Sprintf("%016x", in.hash))
	oo := secidx.OpenOptions{Mode: secidx.ModePread, CacheBlocks: serveCacheBlocks}
	inst, err := h.setupMedian(h.reps(3), func(dir string) (*instance, error) {
		return setupSharded(h, dir, in.n, oo, true)
	})
	if err != nil {
		return err
	}
	defer inst.close()
	size := inst.bytes
	h.info("container_bytes", size)

	ph := in.runPhase(h, inst, nil)
	if h.opt.trace {
		h.untracedPerSec = float64(ph.lat.summarize().N) / ph.wall
		ph = in.runPhase(h, inst, h.tr)
	}
	lat := ph.lat.summarize()
	h.verify("serve-overlap", inst.col.X, ph.checks)
	perSec := float64(ph.stats.Completed) / ph.wall
	tot, counted, err := in.countPass(inst.path, oo)
	if err != nil {
		return err
	}
	h.info("count_pass_queries", counted)
	h.readMetrics(lat, []float64{perSec}, tot, counted)
	h.set("bits_per_row", float64(size*8)/float64(in.n))
	if shed := ph.stats.Shed + ph.stats.Expired; shed > 0 {
		h.info("shed", shed)
	}
	if h.opt.trace {
		return in.probe(h, inst, ph, lat, perSec)
	}
	return nil
}

func (in *serveInputs) probe(h *harness, inst *instance, ph *servePhase, lat summary, perSec float64) error {
	tot := readTotals{reads: ph.stats.Reads, bitsRead: int64(ph.bitsRead), sizeBits: ph.sizeBits, card: ph.card}
	p := newProbes(h.tr)
	tw, err := newShardTwin(inst.col)
	if err != nil {
		return fmt.Errorf("shard twin: %w", err)
	}
	bt, err := newBlockTwin(inst.path, h.opt.seed)
	if err != nil {
		return fmt.Errorf("block twin: %w", err)
	}
	defer bt.close()
	for _, s := range ph.sampled {
		// The request alone through the public handle, past the server: its
		// own block reads, and the base of the fan-out figure.
		var st secidx.Stats
		d := p.run(s.req, s.root, "secidx.ShardedIndex.Query", 1, func() { _, st, err = inst.o.Sharded.Query(s.lo, s.hi) })
		if err != nil {
			return err
		}
		q := s.sampledQuery
		q.reads, q.rootNS = st.Reads, d
		rp := tw.replay(h, p, bt, "iomodel.cached", q)
		// The time the server held the request before its batch ran, as the
		// server reported it, is the serving layer's step of this request.
		h.tr.add(s.req, rp, "serve.wait", s.wait)
	}
	p.sweep(bt, 1024)
	if err := in.serveSelf(p); err != nil {
		return err
	}
	h.staticLayerMetrics(p, inst, in.n, lat, tot)
	h.shardMetrics(p)
	st := ph.stats
	h.set("iomodel.cache_hit_frac", float64(ph.dev.CacheHits)/float64(max(ph.dev.CacheHits+ph.dev.CacheMisses, 1)))
	h.set("iomodel.cache_misses", float64(ph.dev.CacheMisses))
	h.set("core.shared_saved_frac", float64(st.SharedSaved)/float64(max(st.Reads+st.SharedSaved, 1)))
	h.set("serve.submit_self_us", p.pct("serve.Submit(stub)", 50))
	h.set("serve.batch_size_mean", float64(ph.batchSum)/float64(max(lat.N, 1)))
	h.set("serve.wait_us_p50", ph.wait.summarize().P50)
	h.set("serve.service_us_p50", ph.service.summarize().P50)
	batches := float64(max(st.Batches, 1))
	h.set("serve.flush_size_frac", float64(st.FlushSize)/batches)
	h.set("serve.flush_wait_frac", float64(st.FlushWait)/batches)
	h.set("serve.flush_overlap_frac", float64(st.FlushOverlap)/batches)
	h.set("serve.queue_max", float64(st.QueueMax))
	h.set("serve.shed_frac", float64(st.Shed+st.Expired)/float64(max(len(in.qs), 1)))
	h.set("serve.blocks_per_request", float64(st.Reads)/float64(max(st.Completed, 1)))
	h.processMetrics(ph.usage, len(in.qs), perSec)
	h.info("probed_requests", len(ph.sampled))
	return nil
}
