// Package index defines the common contract all secondary indexes in this
// repository implement — the paper's structures (Theorems 1–7) and the
// baselines it compares against (bitmap indexes, WAH, multi-resolution
// bitmap indexes, B-trees) — so the experiment harness can sweep them
// uniformly.
package index

import (
	"errors"
	"fmt"

	"repro/internal/cbitmap"
)

// QueryStats reports the I/O-model cost of one query: the number of
// distinct blocks read and written (the paper's cost measure) and the
// number of compressed bits the query algorithm consumed, which the
// optimality experiments compare against the information bound.
//
// For a batch of queries answered through a shared-scan session the stats
// are batch-level: Reads counts each distinct block once for the whole
// batch, and SharedSaved counts the block reads the batch avoided compared
// to running every query in its own session (so Reads + SharedSaved is the
// per-query-session cost of the same batch).
type QueryStats struct {
	Reads    int
	Writes   int
	BitsRead int64
	// SharedSaved is the number of block reads avoided by shared scans: the
	// sum over the batch's queries of their distinct blocks, minus the
	// distinct blocks of the whole batch. Zero for single queries.
	SharedSaved int
	// FailedReads counts device read attempts that failed during the
	// operation, across every attempt it made. Always zero on an infallible
	// device; under fault injection it includes attempts whose failure was
	// recovered by a retry.
	FailedReads int
	// RetriedReads counts whole-operation retry attempts performed after a
	// transient read failure (the per-shard bounded-retry layer increments
	// it once per re-issued attempt).
	RetriedReads int
}

// Add accumulates other into s.
func (s *QueryStats) Add(other QueryStats) {
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.BitsRead += other.BitsRead
	s.SharedSaved += other.SharedSaved
	s.FailedReads += other.FailedReads
	s.RetriedReads += other.RetriedReads
}

// Range is an alphabet range query [Lo,Hi] (inclusive, as in the paper).
type Range struct {
	Lo, Hi uint32
}

// Valid reports whether the range is well-formed for alphabet size sigma.
func (r Range) Valid(sigma int) error {
	if r.Lo > r.Hi {
		return fmt.Errorf("index: empty range [%d,%d]", r.Lo, r.Hi)
	}
	if int(r.Hi) >= sigma {
		return fmt.Errorf("index: range end %d outside alphabet [0,%d)", r.Hi, sigma)
	}
	return nil
}

// Len returns the number of characters in the range (the paper's ℓ).
func (r Range) Len() int { return int(r.Hi-r.Lo) + 1 }

// ErrNotSupported is returned by optional operations an index does not
// implement (e.g. updates on a static structure).
var ErrNotSupported = errors.New("index: operation not supported")

// Index is a secondary index over a string x ∈ Σⁿ.
type Index interface {
	// Name identifies the structure in experiment tables.
	Name() string
	// Len returns n, the length of the indexed string.
	Len() int64
	// Sigma returns the alphabet size σ.
	Sigma() int
	// SizeBits returns the total space usage in bits, including bitmap
	// payloads, directories and tree structure.
	SizeBits() int64
	// Query answers I[lo;hi] as a compressed position set.
	Query(r Range) (*cbitmap.Bitmap, QueryStats, error)
}
