package secidx

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Epoch/snapshot semantics for the dynamic structures. In concurrent mode
// (Options.Concurrent / OpenOptions.Concurrent) the writer publishes, after
// every applied operation, an immutable *epoch*: a deep copy of the index's
// query-path metadata bound to a copy-on-write freeze of the device
// (iomodel.Disk.Freeze). Readers pin the current epoch with one atomic
// increment and one atomic load, query the frozen pair with the unmodified
// query pipeline, and unpin — no reader ever takes a lock a writer can hold,
// so reads never block on writes, and a read's answer is bit-identical to
// the sequential index at the epoch's version. Retired epochs are
// garbage-collected once no reader holds a pointer to them; the live-pin
// counter exists so the harness can assert that every pin is released.

// epoch is one published immutable view: a version (the sequence number of
// the last operation it reflects) plus a read-only clone of the index.
type epoch struct {
	version uint64
	q       queryable
}

// epochState is the publication point: an atomically-swapped pointer to the
// current epoch plus a global count of live pins (for leak assertions).
type epochState struct {
	cur  atomic.Pointer[epoch]
	pins atomic.Int64
}

// publish swaps in a new current epoch. Old epochs stay valid for readers
// that already pinned them and are reclaimed by the garbage collector once
// those readers are done.
func (es *epochState) publish(e *epoch) {
	es.cur.Store(e)
}

// pin acquires the current epoch for reading. It runs entirely on atomics —
// a reader never waits for the writer.
func (es *epochState) pin() *epoch {
	es.pins.Add(1)
	return es.cur.Load()
}

// unpin releases a pinned epoch.
func (es *epochState) unpin() { es.pins.Add(-1) }

// livePins returns the number of currently pinned epoch references across
// all readers (0 when every read and snapshot has finished).
func (es *epochState) livePins() int64 { return es.pins.Load() }

// Snapshot is a pinned epoch: a consistent read-only view of an index as of
// a specific acknowledged operation. Any number of queries may run against
// it — concurrently with each other and with ongoing writes to the live
// index — and all of them observe exactly the state at Version. Release it
// when done; a Snapshot holds its epoch's memory live until then.
type Snapshot struct {
	es       *epochState
	ep       *epoch
	released atomic.Bool
}

func newSnapshot(es *epochState) (*Snapshot, error) {
	if es == nil {
		return nil, fmt.Errorf("secidx: Snapshot requires a concurrent handle (Options.Concurrent)")
	}
	return &Snapshot{es: es, ep: es.pin()}, nil
}

// Version returns the sequence number of the last operation the snapshot
// reflects: the count of applied operations on a built index, the WAL
// sequence number on a durable handle.
func (s *Snapshot) Version() uint64 { return s.ep.version }

// Query answers I[lo;hi] against the snapshot.
func (s *Snapshot) Query(lo, hi uint32) (*Result, Stats, error) {
	return s.QueryContext(context.Background(), lo, hi)
}

// QueryContext answers like Query, honouring ctx.
func (s *Snapshot) QueryContext(ctx context.Context, lo, hi uint32) (*Result, Stats, error) {
	if s.released.Load() {
		return nil, Stats{}, ErrClosed
	}
	return runQuery(ctx, s.ep.q, lo, hi)
}

// Release unpins the snapshot's epoch. Releasing twice is a no-op; queries
// after Release return ErrClosed.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.es.unpin()
	}
}

// opLog is an in-memory record of applied operations, used by the
// linearizability harness as its replay oracle: tests attach one to a
// concurrent handle (the history field) and the writer path appends each
// operation with its version under the writer lock.
type opLog struct {
	mu   sync.Mutex
	recs []opRec
}

type opRec struct {
	seq uint64
	op  walOp
}

func (l *opLog) add(seq uint64, op walOp) {
	l.mu.Lock()
	l.recs = append(l.recs, opRec{seq: seq, op: op})
	l.mu.Unlock()
}

// snapshot returns a copy of the recorded operations in append order.
func (l *opLog) snapshot() []opRec {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]opRec, len(l.recs))
	copy(out, l.recs)
	return out
}
