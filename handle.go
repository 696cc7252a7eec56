package secidx

import (
	"context"
	"sync"

	"repro/internal/container"
	"repro/internal/iomodel"
)

// writable is what an updatable index kind supplies to the shared handle:
// how to check and apply one logged operation, how to clone its query-path
// metadata against a frozen device, and how to serialise itself.
type writable interface {
	// validateOp checks op's preconditions without mutating anything: only
	// operations the index will accept may be logged — a record whose replay
	// fails would poison recovery.
	validateOp(op walOp) error
	// applyOp applies op. Live updates and write-ahead-log replay both run
	// through it.
	applyOp(op walOp) (Stats, error)
	cloneReadOnly(dev iomodel.Device) (queryable, error)
	// emitSections writes the container's sections at durability watermark
	// seq.
	emitSections(cw *container.Writer, seq uint64) error
}

// handle is the lifecycle and write pipeline AppendIndex and DynamicIndex
// share: the device and its fault wrapper, the durability layer of a
// writable reopen, and the epochs of concurrent mode. Every update reaches
// the index through apply.
type handle struct {
	kind writable  // the embedding index
	live queryable // the mutable structure; what non-concurrent reads query
	disk *iomodel.Disk
	fd   *iomodel.FaultDisk // non-nil iff built or opened with Faults
	dur  *durable           // non-nil iff reopened writable (OpenOptions.WAL)
	opts Options

	// epochs is non-nil in concurrent mode. wmu serializes writers on
	// non-durable handles; durable handles serialize through dur.mu. version
	// is the sequence number of the last applied operation — the count of
	// applied operations, or the WAL sequence number on a durable handle —
	// guarded by the writer lock.
	epochs  *epochState
	wmu     sync.Mutex
	version uint64
	history *opLog // test hook: linearizability oracle input
}

// writerLock returns the lock that serializes this handle's writers.
func (ix *handle) writerLock() *sync.Mutex {
	if ix.dur != nil {
		return &ix.dur.mu
	}
	return &ix.wmu
}

// apply runs one update through the write pipeline: lock, refuse a closed
// or broken handle, validate, log (durable handles), apply, publish the new
// epoch (concurrent handles), checkpoint if due, unlock. A failure after a
// successful log breaks a durable handle for good: the in-memory state may
// be part-mutated, and recovery from the still consistent on-disk state is
// the only way forward.
//
// Under group commit the durability wait happens after the lock is
// released, so the next writer appends its record while this one waits for
// the shared sync (one fsync per convoy, not per op).
func (ix *handle) apply(op walOp) (Stats, error) {
	st, seq, err := ix.applyLocked(op)
	if err == nil && ix.dur != nil && ix.dur.group {
		err = ix.dur.waitDurable(seq)
	}
	return st, err
}

func (ix *handle) applyLocked(op walOp) (st Stats, seq uint64, err error) {
	mu := ix.writerLock()
	mu.Lock()
	defer mu.Unlock()
	du := ix.dur
	if du != nil {
		if du.closed {
			return st, 0, ErrClosed
		}
		if du.err != nil {
			return st, 0, du.err
		}
	}
	if err := ix.kind.validateOp(op); err != nil {
		return st, 0, err
	}
	seq = ix.version + 1
	if du != nil {
		if err := du.log(op.encode()); err != nil {
			return st, 0, err
		}
		seq = du.w.Seq()
	}
	st, err = ix.kind.applyOp(op)
	if err == nil && ix.epochs != nil {
		if ix.history != nil {
			ix.history.add(seq, op)
		}
		err = ix.publishEpoch(seq)
	}
	if err != nil {
		if du != nil {
			du.fail(err)
		}
		return st, seq, err
	}
	ix.version = seq
	if du != nil {
		du.opsSince++
		du.maybeCheckpoint()
	}
	return st, seq, nil
}

// goConcurrent switches the handle to concurrent mode and publishes its
// first epoch at version. Called before the handle is shared.
func (ix *handle) goConcurrent(version uint64) error {
	ix.epochs = &epochState{}
	ix.version = version
	return ix.publishEpoch(version)
}

// publishEpoch freezes the device, clones the query-path metadata against
// the frozen view and swaps the pair in as the current epoch. Called with
// the writer lock held (or before the handle is shared).
func (ix *handle) publishEpoch(version uint64) error {
	var dev iomodel.Device
	if ix.fd != nil {
		// Wrapped with the live fault schedule, so snapshot reads draw the
		// same deterministic fates as live reads.
		dev = ix.fd.FreezeView()
	} else {
		dev = ix.disk.Freeze()
	}
	q, err := ix.kind.cloneReadOnly(dev)
	if err != nil {
		return err
	}
	ix.epochs.publish(&epoch{version: version, q: q})
	return nil
}

// writeFile serialises the index to path as a container of the given kind.
// The writer lock is held across reading the watermark and emitting the
// sections, so the container's watermark never trails its contents.
func (ix *handle) writeFile(path string, kind uint64) error {
	if ix.disk.FileBacked() {
		return errReopened
	}
	mu := ix.writerLock()
	mu.Lock()
	defer mu.Unlock()
	var seq uint64
	if ix.dur != nil {
		seq = ix.dur.lastSeqLocked()
	}
	return writeContainer(path, kind, func(cw *container.Writer) error {
		return ix.kind.emitSections(cw, seq)
	})
}

// Snapshot pins the current epoch: a consistent read-only view of the index
// as of the last applied operation. Requires a concurrent handle.
func (ix *handle) Snapshot() (*Snapshot, error) {
	return newSnapshot(ix.epochs)
}

// ArmFaults starts fault injection on an index built with Options.Faults
// (no-op otherwise). Arming is an atomic flag flip: it is safe against
// in-flight queries and writers, which observe the schedule from their next
// device read on.
func (ix *handle) ArmFaults() {
	if ix.fd != nil {
		ix.fd.Arm()
	}
}

// DisarmFaults stops fault injection.
func (ix *handle) DisarmFaults() {
	if ix.fd != nil {
		ix.fd.Disarm()
	}
}

// Query answers I[lo;hi].
func (ix *handle) Query(lo, hi uint32) (*Result, Stats, error) {
	return ix.QueryContext(context.Background(), lo, hi)
}

// QueryContext answers I[lo;hi], honouring ctx. On a concurrent handle the
// query runs against the current epoch — a consistent snapshot pinned with
// two atomic operations, never a lock — so it is safe against concurrent
// writers and observes the state at exactly some applied operation.
func (ix *handle) QueryContext(ctx context.Context, lo, hi uint32) (*Result, Stats, error) {
	if es := ix.epochs; es != nil {
		e := es.pin()
		defer es.unpin(e)
		return runQuery(ctx, e.q, lo, hi)
	}
	return runQuery(ctx, ix.live, lo, hi)
}
