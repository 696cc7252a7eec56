package serve

import (
	"context"
	"math"
	"slices"
	"time"

	"repro/internal/cbitmap"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ServiceModel maps a batch's measured I/O cost to virtual service time:
// a fixed per-batch overhead plus a per-charged-block-read cost plus a cost
// per 1024 bits read, the decode-merge work that dominates once reads come
// from a cache. The real backend is executed for real inside the simulation
// (so answers and read counts are exact); only *time* is modelled.
type ServiceModel struct {
	BatchOverhead time.Duration // default 50µs
	PerRead       time.Duration // default 20µs per charged block read
	PerKBit       time.Duration // default 0
}

func (m ServiceModel) withDefaults() ServiceModel {
	if m.BatchOverhead <= 0 {
		m.BatchOverhead = 50 * time.Microsecond
	}
	if m.PerRead <= 0 {
		m.PerRead = 20 * time.Microsecond
	}
	return m
}

// Time is the virtual service time of a batch whose execution charged
// st.Reads block reads and read st.BitsRead bits.
func (m ServiceModel) Time(st index.QueryStats) time.Duration {
	return m.BatchOverhead + time.Duration(st.Reads)*m.PerRead + time.Duration(st.BitsRead)*m.PerKBit/1024
}

// Armable lets the simulator toggle deterministic fault injection on the
// backend at virtual times (shard.Index implements it).
type Armable interface {
	ArmFaults()
	DisarmFaults()
}

// SimConfig configures one simulation run: the serving policy, the service
// model, an optional uniform per-request deadline budget, and an optional
// fault window on the virtual clock.
type SimConfig struct {
	Config  Config
	Service ServiceModel
	// Budget, when positive, gives every request the deadline At+Budget.
	Budget time.Duration
	// ArmAt/DisarmAt bound the virtual-time window in which the backend's
	// fault injection is armed (requires a non-nil Armable). DisarmAt = 0
	// with ArmAt > 0 keeps faults armed to the end of the run.
	ArmAt, DisarmAt time.Duration
}

// SimOutcome is the fate of one arrival.
type SimOutcome struct {
	Shed    bool // rejected at admission: queue full
	Expired bool // rejected at admission: hopeless deadline budget
	Err     error
	// Bm is the answer for served requests (nil otherwise).
	Bm *cbitmap.Bitmap
	// Degraded reports a served answer missing ≥1 shard.
	Degraded bool
	// Latency is arrival→completion on the virtual clock (served requests).
	Latency time.Duration
	// Batch is the serving batch's member count (0 if never executed) and
	// Trigger what released it, named as in Response.Trigger: "cache" for an
	// answer-cache hit, which rode in no batch.
	Batch   int
	Trigger string
}

// SimResult is one simulation run's full outcome.
type SimResult struct {
	// Outcomes[i] is arrival i's fate, index-aligned with the input.
	Outcomes []SimOutcome
	// Stats is the same metrics snapshot a real Server produces, with
	// latencies on the virtual clock.
	Stats Stats
	// Makespan is the virtual time of the last event.
	Makespan time.Duration
}

// simWorker holds one in-flight batch and its pre-computed outcome, to be
// delivered when the virtual clock reaches busyUntil.
type simWorker struct {
	busy      bool
	busyUntil int64
	batch     batch[int] // reqs are arrival indices
	skip      []bool
	probe     []bool
	bms       []*cbitmap.Bitmap
	st        index.QueryStats
	report    []shard.ShardError
	err       error
}

const simNever = int64(math.MaxInt64)

// Simulate runs the serving policy (the same admission bound, flush
// triggers, breaker bank and metrics the real Server uses) as a
// single-threaded discrete-event simulation over an open-loop arrival
// stream. The backend executes for real — answers and charged reads are
// exact — while time is virtual, so for a fixed arrival stream and
// configuration every shed decision, breaker transition and latency
// quantile is bit-deterministic and can be asserted against. The answer
// cache, when Config.AnswerCacheBytes asks for one, fronts admission as in
// Server.Submit; without it the run models the miss path alone.
func Simulate(be Backend, arm Armable, arrivals []workload.Arrival, sc SimConfig) SimResult {
	cfg := sc.Config.withDefaults()
	svc := sc.Service.withDefaults()
	brk := newBreakers(be.Shards(), cfg.Breaker)
	ans := newAnswerCache(cfg.AnswerCacheBytes)
	var met metrics

	out := make([]SimOutcome, len(arrivals))
	var f forming[int]
	var intake []int // admitted arrivals waiting behind a sealed batch, as in Server.intake
	workers := make([]simWorker, cfg.Workers)

	armAt, disarmAt := simNever, simNever
	if arm != nil && sc.ArmAt > 0 {
		armAt = int64(sc.ArmAt)
		if sc.DisarmAt > sc.ArmAt {
			disarmAt = int64(sc.DisarmAt)
		}
	}

	var makespan int64

	deliver := func(w *simWorker, now int64) {
		b := w.batch
		brk.observe(now, w.skip, w.probe, batchFailures(be.Shards(), w.skip, w.report, w.err), w.err)
		if w.err == nil {
			met.reads.Add(int64(w.st.Reads))
			met.sharedSaved.Add(int64(w.st.SharedSaved))
			met.failedReads.Add(int64(w.st.FailedReads))
			met.retriedReads.Add(int64(w.st.RetriedReads))
		}
		for j, idx := range b.reqs {
			o := &out[idx]
			o.Batch, o.Trigger = len(b.reqs), b.trigger.String()
			o.Err = w.err
			if w.err == nil {
				o.Bm = w.bms[j]
				o.Degraded = len(w.report) > 0
				o.Latency = time.Duration(now - int64(arrivals[idx].At))
				met.completed.Add(1)
				if o.Degraded {
					met.degraded.Add(1)
				} else {
					ans.put(b.ranges[j], o.Bm)
				}
				met.lat.observe(o.Latency)
			} else {
				met.failed.Add(1)
			}
		}
		w.busy = false
	}

	// start runs a batch on a free worker at virtual time now: the breaker
	// gate decides the skip set, the backend executes immediately (real
	// answers), and completion is scheduled at now + modelled service time —
	// truncated to the batch's tightest member deadline, in which case the
	// batch counts as cancelled exactly like the real server's context
	// deadline would make it.
	start := func(w *simWorker, b batch[int], now int64) {
		met.depth.Add(-int64(len(b.reqs)))
		met.batches.Add(1)
		met.flush[b.trigger].Add(1)
		var minDeadline int64
		if sc.Budget > 0 {
			for _, idx := range b.reqs {
				d := int64(arrivals[idx].At) + int64(sc.Budget)
				if minDeadline == 0 || d < minDeadline {
					minDeadline = d
				}
			}
		}
		skip, probe, allSkipped := brk.gate(now)
		w.busy = true
		w.batch = b
		w.skip, w.probe = skip, probe
		if allSkipped {
			w.bms, w.st, w.report, w.err = nil, index.QueryStats{}, nil, ErrNoShards
			w.busyUntil = now // fail fast, no backend work
			return
		}
		eo := shard.ExecOptions{Retry: cfg.Retry, AllowPartial: cfg.AllowPartial, SkipShards: skip}
		w.bms, w.st, w.report, w.err = be.QueryBatch(context.Background(), b.ranges, eo)
		tc := now + int64(svc.Time(w.st))
		if minDeadline > 0 && tc > minDeadline {
			tc = minDeadline
			w.bms, w.report, w.err = nil, nil, context.DeadlineExceeded
		}
		w.busyUntil = tc
	}

	next := 0 // next arrival index

	// dispatch is Server.dispatch on the virtual clock: queued arrivals join
	// the forming batch until it seals, and the batch starts on a free
	// worker once it is sealed or no arrival due by now is still to join.
	dispatch := func(now int64) {
		for {
			for ; !f.sealed() && len(intake) > 0; intake = intake[1:] {
				ar := arrivals[intake[0]]
				var deadline int64
				if sc.Budget > 0 {
					deadline = int64(ar.At + sc.Budget)
				}
				f.add(intake[0], index.Range{Lo: ar.Lo, Hi: ar.Hi}, deadline, now)
				f.seal(&cfg, now)
			}
			free := slices.IndexFunc(workers, func(w simWorker) bool { return !w.busy })
			if len(f.reqs) == 0 || free < 0 || !f.sealed() && next < len(arrivals) && int64(arrivals[next].At) <= now {
				return
			}
			start(&workers[free], f.take(), now)
			// A fail-fast batch (all breakers open) completes at once and
			// frees the worker for the next batch.
			if workers[free].busyUntil <= now {
				deliver(&workers[free], now)
			}
		}
	}

	for {
		// Candidate event times; tie-break order is fixed (completion,
		// fault toggle, flush timer, arrival) so the run is deterministic.
		tComp, compW := simNever, -1
		for i := range workers {
			if workers[i].busy && workers[i].busyUntil < tComp {
				tComp, compW = workers[i].busyUntil, i
			}
		}
		tFault := armAt
		if disarmAt < tFault {
			tFault = disarmAt
		}
		tTimer := f.timerAt(&cfg)
		tArr := simNever
		if next < len(arrivals) {
			tArr = int64(arrivals[next].At)
		}

		now := tComp
		for _, t := range []int64{tFault, tTimer, tArr} {
			if t < now {
				now = t
			}
		}
		if now == simNever {
			break
		}
		if now > makespan {
			makespan = now
		}

		switch {
		case tComp == now:
			deliver(&workers[compW], now)
		case tFault == now:
			if armAt == now {
				arm.ArmFaults()
				armAt = simNever
			} else {
				arm.DisarmFaults()
				disarmAt = simNever
			}
		case tTimer == now:
			f.seal(&cfg, now)
		default: // arrival
			idx := next
			next++
			if sc.Budget > 0 && sc.Budget <= cfg.MinBudget {
				out[idx].Expired = true
				out[idx].Err = context.DeadlineExceeded
				met.expired.Add(1)
				break
			}
			if bm, ok := ans.get(index.Range{Lo: arrivals[idx].Lo, Hi: arrivals[idx].Hi}); ok {
				out[idx].Bm, out[idx].Trigger = bm, "cache" // a hit completes at its arrival instant
				met.completed.Add(1)
				met.lat.observe(0)
				break
			}
			if met.depth.Load() >= int64(cfg.MaxQueue) {
				out[idx].Shed = true
				out[idx].Err = ErrOverloaded
				met.shed.Add(1)
				break
			}
			met.admitted.Add(1)
			met.depth.Add(1)
			met.bumpDepthMax()
			intake = append(intake, idx)
		}
		dispatch(now)
	}

	st := met.snapshot(brk)
	ans.fill(&st)
	return SimResult{Outcomes: out, Stats: st, Makespan: time.Duration(makespan)}
}
