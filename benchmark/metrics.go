package main

// The metric catalogue: the one place that names every number the benchmark
// reports. BENCHMARK.json, the README glossary and the printed tables all
// follow it (bench_test.go checks the first against it).

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Doc    string
}

// endToEnd lists what a user of the index sees. Every workload reports every
// metric, from its own traffic: figures of operations only some index kinds
// have (writes, approximate queries) are per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "generate + build + WriteFile + OpenFile (+ Serve) before the timed phase; median of the set-ups made in one run"},
	{"query_p50_us", "us", "lower", 0.25, "exact-query latency, call to return; median (of rounds where every round has the samples for the tail percentile)"},
	{"query_per_s", "1/s", "higher", 0.25, "exact queries per second: over wall time where clients only query (scan-wide, serve-overlap), over summed query-call time where one client interleaves types or is paced; median of rounds"},
	{"blocks_per_query", "blocks", "lower", 0.08, "charged block reads per exact query (Stats.Reads; serve-overlap: over its count pass) - the paper's I/O currency"},
	{"read_amp", "ratio", "lower", 0.02, "compressed bits read per bit of compressed answer (Stats.BitsRead over Result.SizeBits) - the paper's constant factor"},
	{"bits_per_row", "bits", "lower", 0.02, "container file bits per row (dynamic-churn: final checkpoint over live rows)"},
}

// perLayer lists the single-layer figures of the traced run, named
// <module>.<metric> after the repo's packages. A figure that a workload does
// not exercise is reported as 0 there.
var perLayer = []metricDef{
	{Name: "bitio.read_ns_per_word", Unit: "ns", Better: "lower", Doc: "probe: bitio.Reader.ReadBits(64) over the encoded sampled answers"},
	{Name: "gamma.decode_ns_per_int", Unit: "ns", Better: "lower", Doc: "probe: gamma.Read over the encoded sampled answers"},
	{Name: "cbitmap.decode_ns_per_row", Unit: "ns", Better: "lower", Doc: "probe: cbitmap.Decode of the encoded sampled answers"},
	{Name: "cbitmap.merge_ns_per_row", Unit: "ns", Better: "lower", Doc: "probe: cbitmap.UnionAll over the four shifted row-range parts of each sampled answer (the per-shard answers where the index is sharded)"},
	{Name: "cbitmap.iter_ns_per_row", Unit: "ns", Better: "lower", Doc: "probe: Result.ForEach over the sampled answers"},
	{Name: "cbitmap.answer_bits_per_row", Unit: "bits", Better: "lower", Doc: "count: sum of Result.SizeBits over sum of Result.Card"},
	{Name: "iomodel.pread_ns_per_block", Unit: "ns", Better: "lower", Doc: "probe: Touch.ReaderInto of one-block extents on a pread FileDisk over the workload's container"},
	{Name: "iomodel.mmap_ns_per_block", Unit: "ns", Better: "lower", Doc: "probe: the same on an mmap FileDisk"},
	{Name: "iomodel.cached_ns_per_block", Unit: "ns", Better: "lower", Doc: "probe: the same on a pread FileDisk whose block cache covers the image"},
	{Name: "iomodel.bits_per_query", Unit: "bits", Better: "lower", Doc: "count: Stats.BitsRead per exact query"},
	{Name: "iomodel.cache_hit_frac", Unit: "ratio", Better: "higher", Doc: "count: DeviceStats.CacheHits over hits + misses"},
	{Name: "iomodel.block_reads", Unit: "count", Better: "lower", Doc: "count: charged block reads of the timed phase"},
	{Name: "iomodel.cache_misses", Unit: "count", Better: "lower", Doc: "count: DeviceStats.CacheMisses of the timed phase"},
	{Name: "iomodel.cow_first_write_us", Unit: "us", Better: "lower", Doc: "probe: Disk.Freeze then a one-word Touch.WriteBits on a memory twin of the workload's image size"},
	{Name: "iomodel.image_bytes", Unit: "bytes", Better: "lower", Doc: "count: bytes of device image the copy-on-write clone copies (twin AllocatedBits/8)"},
	{Name: "container.write_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "root: WriteFile"},
	{Name: "container.open_ms", Unit: "ms", Better: "lower", Doc: "root: read-only OpenFile of the container"},
	{Name: "container.bytes", Unit: "bytes", Better: "lower", Doc: "count: container file size"},
	{Name: "core.build_ns_per_row", Unit: "ns", Better: "lower", Doc: "root: Build / BuildSharded / BuildAppend / BuildDynamic"},
	{Name: "core.plan_ns_per_query", Unit: "ns", Better: "lower", Doc: "probe: core.Optimal.PlanQuery on a memory twin (per shard where sharded)"},
	{Name: "core.query_mem_p50_us", Unit: "us", Better: "lower", Doc: "probe: the same query on the never-persisted in-memory index; root minus this is the file's cost"},
	{Name: "core.approx_bits_frac", Unit: "ratio", Better: "lower", Doc: "count: approximate BitsRead over exact BitsRead for the same ranges"},
	{Name: "core.approx_p50_us", Unit: "us", Better: "lower", Doc: "root: ApproxQuery(lo, lo+15, eps=1/16) latency, median (point-pread: every 16th operation)"},
	{Name: "core.shared_saved_frac", Unit: "ratio", Better: "higher", Doc: "count: ServerStats.SharedSaved over Reads + SharedSaved"},
	{Name: "core.append_ns_per_op", Unit: "ns", Better: "lower", Doc: "probe: core.AppendIndex.Append on a memory-disk twin fed the same stream"},
	{Name: "core.dyn_write_ns_per_op", Unit: "ns", Better: "lower", Doc: "probe: core.Dynamic Change/Delete/Append on a memory-disk twin fed the same stream"},
	{Name: "core.dyn_query_p50_us", Unit: "us", Better: "lower", Doc: "probe: core.Dynamic.Query on the twin"},
	{Name: "core.dyn_stall_max_ms", Unit: "ms", Better: "lower", Doc: "root: slowest write of the timed phase"},
	{Name: "core.dyn_stalls_over_10ms", Unit: "count", Better: "lower", Doc: "root: writes slower than 10 ms"},
	{Name: "shard.fanout_self_us", Unit: "us", Better: "lower", Doc: "root Sharded.Query minus (slowest per-shard probe + UnionAll probe) on a shard.Build twin; median"},
	{Name: "shard.skew_frac", Unit: "ratio", Better: "lower", Doc: "probe: slowest per-shard query over the mean per-shard query; median"},
	{Name: "wal.append_ns_per_rec", Unit: "ns", Better: "lower", Doc: "probe: wal.Writer.Append under manual sync on a real file, the workload's payloads"},
	{Name: "wal.sync_us_p50", Unit: "us", Better: "lower", Doc: "probe: wal.Writer.Sync after one record, on a real file"},
	{Name: "wal.sync_us_p99", Unit: "us", Better: "lower", Doc: "the same at the highest supported percentile"},
	{Name: "wal.bytes_per_op", Unit: "bytes", Better: "lower", Doc: "count: log bytes per logged operation"},
	{Name: "wal.scan_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "probe: wal.Scan of the final log"},
	{Name: "epoch.publish_us_p50", Unit: "us", Better: "lower", Doc: "probe: CloneReadOnly(disk.Freeze()) on the twin"},
	{Name: "epoch.publish_alloc_bytes", Unit: "bytes", Better: "lower", Doc: "probe: MemStats.TotalAlloc delta of one publication"},
	{Name: "epoch.pin_release_ns", Unit: "ns", Better: "lower", Doc: "probe: empty Snapshot + Release on the live handle"},
	{Name: "epoch.reader_late_p99_us", Unit: "us", Better: "lower", Doc: "count: how late the paced reader started its requests"},
	{Name: "durable.append_self_us", Unit: "us", Better: "lower", Doc: "root write p50 minus the wal, core, epoch and copy-on-write probe p50s"},
	{Name: "durable.write_p50_us", Unit: "us", Better: "lower", Doc: "root: acknowledged Append/Change/Delete latency, median"},
	{Name: "durable.write_per_s", Unit: "1/s", Better: "higher", Doc: "root: acknowledged writes per summed second of write calls; median of rounds"},
	{Name: "durable.write_p99_us", Unit: "us", Better: "lower", Doc: "root: acknowledged write latency at the highest percentile with ten samples beyond it (not an end-to-end metric: the sandbox's collector and fsync tails moved it by 15 to 110 % between runs)"},
	{Name: "durable.checkpoint_stall_ms_p50", Unit: "ms", Better: "lower", Doc: "root: latency of the writes that cross a CheckpointOps boundary; median"},
	{Name: "durable.checkpoint_count", Unit: "count", Better: "lower", Doc: "count: checkpoints taken in the timed phase"},
	{Name: "durable.checkpoint_bytes", Unit: "bytes", Better: "lower", Doc: "count: container bytes rewritten by those checkpoints"},
	{Name: "durable.write_amp", Unit: "ratio", Better: "lower", Doc: "count: (log + checkpoint bytes) over 4 bytes per write"},
	{Name: "durable.recover_s", Unit: "s", Better: "lower", Doc: "root: OpenFile with the WAL on a copy of container and log, taken without Close, until the handle answers and LastSeq equals the acknowledged count; median of the reopens made in one run"},
	{Name: "durable.recover_replay_ops", Unit: "count", Better: "lower", Doc: "count: log records the recovery replayed"},
	{Name: "serve.submit_self_us", Unit: "us", Better: "lower", Doc: "probe: serve.Server.Submit over a stub Backend that answers at once, same client count; median"},
	{Name: "serve.batch_size_mean", Unit: "count", Better: "higher", Doc: "count: mean ServedResult.BatchSize"},
	{Name: "serve.wait_us_p50", Unit: "us", Better: "lower", Doc: "count: ServedResult.Wait, median"},
	{Name: "serve.service_us_p50", Unit: "us", Better: "lower", Doc: "count: ServedResult.Service, median"},
	{Name: "serve.flush_size_frac", Unit: "ratio", Better: "higher", Doc: "count: batches flushed by the distinct-range trigger"},
	{Name: "serve.flush_wait_frac", Unit: "ratio", Better: "lower", Doc: "count: batches flushed by the oldest-member-age trigger"},
	{Name: "serve.flush_overlap_frac", Unit: "ratio", Better: "higher", Doc: "count: batches flushed by the total-members trigger"},
	{Name: "serve.queue_max", Unit: "count", Better: "lower", Doc: "count: ServerStats.QueueMax"},
	{Name: "serve.shed_frac", Unit: "ratio", Better: "lower", Doc: "count: shed + expired requests over submitted"},
	{Name: "serve.blocks_per_request", Unit: "blocks", Better: "lower", Doc: "count: ServerStats.Reads per completed request"},
	{Name: "process.cpu_s_per_kop", Unit: "s", Better: "lower", Doc: "getrusage user+system seconds of the timed phase per 1000 operations"},
	{Name: "process.alloc_bytes_per_op", Unit: "bytes", Better: "lower", Doc: "MemStats.TotalAlloc delta of the timed phase per operation"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Doc: "MemStats.PauseTotalNs delta of the timed phase"},
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower", Doc: "VmHWM at the end of the run"},
	{Name: "process.query_p99_us", Unit: "us", Better: "lower", Doc: "root: exact-query latency at the highest percentile with at least ten samples beyond it (p99 from 1000 samples up); not an end-to-end metric: the tail here is the hypervisor's and the collector's, and moved by 8 to 44 % between runs of one commit"},
	{Name: "process.trace_overhead_frac", Unit: "ratio", Better: "lower", Doc: "1 - traced over untraced operations per second, same seed, same process"},
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
	run  func(*harness) error
	// Driven workloads are the ones BENCHMARK.json names: the driver runs
	// them and holds their end-to-end metrics to the bounds. The others run
	// by name, under -workload all and in run.sh, and are held to nothing:
	// on this sandbox their timing moves by more than any bound allowed
	// (see README.md, "Steadiness").
	Driven bool
}

// workloads are the benchmark's five traffic shapes; later issues refer to
// them by these names.
var workloads = []workloadDef{
	{"point-pread", "tiny answers from a pread file with no cache: planning, Touch and pread costs do the work, decode almost none; the only place approximate queries are the main traffic", runPointPread, true},
	{"scan-wide", "answers of a tenth to a third of the rows from an mmap sharded file: bitio/gamma/cbitmap decode-merge and the shard union do the work", runScanWide, true},
	{"serve-overlap", "8 closed-loop clients on hot overlapping ranges through the real Server over a cached pread file: admission, batching, the shared-scan planner and the block cache do the work", runServeOverlap, true},
	{"ingest-snapshot", "a durable concurrent append handle with grouped sync beside a paced snapshot reader, then crash recovery: log append, epoch publication and copy-on-write do the work", runIngestSnapshot, false},
	{"dynamic-churn", "change/delete/append/query mix on a durable dynamic handle with grouped sync and op-count checkpoints, then recovery: buffered dynamic ops, rebuild stalls and checkpoints do the work", runDynamicChurn, false},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
