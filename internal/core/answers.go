package core

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"ocelotl/internal/partition"
)

// maxAnswers caps the answer memo of one Input: at most this many solved
// partitions are kept per window. A Traveler-style session revisits a
// handful of slider positions per window, so the cap is generous for
// navigation while bounding what one window can add to its cache cost.
const maxAnswers = 32

// answerMemo holds the partitions SolveContext has computed on one Input,
// keyed by the exact float64 bits of the user-facing p. Algorithm 1 is a
// pure function of the Input and p, so a stored answer is the answer; it
// is shared read-only by every caller that asks again. Like the solver
// pool, the memo is internal concurrency-safe state, not a mutation of the
// aggregation results. Once full it stores nothing more, so the memo's
// cost only ever grows up to the cap.
type answerMemo struct {
	mu      sync.Mutex
	answers map[uint64]*partition.Partition
	// bytes totals the stored answers' resident size (answerBytes), read
	// lock-free by MemoryBytes.
	bytes atomic.Int64
}

// lookup returns the stored answer for key, or nil.
func (m *answerMemo) lookup(key uint64) *partition.Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.answers[key]
}

// store records pt under key unless the memo is full, and returns the
// answer callers should share: the one already stored when a concurrent
// solve of the same p got there first, else pt.
func (m *answerMemo) store(key uint64, pt *partition.Partition) *partition.Partition {
	m.mu.Lock()
	defer m.mu.Unlock()
	if prev := m.answers[key]; prev != nil {
		return prev
	}
	if len(m.answers) >= maxAnswers {
		return pt
	}
	if m.answers == nil {
		m.answers = make(map[uint64]*partition.Partition)
	}
	m.answers[key] = pt
	m.bytes.Add(answerBytes(pt))
	return pt
}

// answerBytes approximates one memoized answer's resident size: the
// partition header, its area array and the memo's key/value slot.
func answerBytes(pt *partition.Partition) int64 {
	return int64(unsafe.Sizeof(*pt)) +
		int64(cap(pt.Areas))*int64(unsafe.Sizeof(partition.Area{})) +
		int64(unsafe.Sizeof(uint64(0))+unsafe.Sizeof(pt))
}

// SolveContext answers Algorithm 1 at trade-off ratio p on this Input,
// once. The first call for a given p (keyed by its exact float64 bits)
// runs a pooled solve — AcquireSolverContext, RunContext, ReleaseSolver —
// and memoizes the partition; later calls return that same partition
// without solving, with hit reporting which of the two happened. The
// returned partition is shared: callers must treat it as read-only.
//
// p is validated before the memo is consulted. A cancelled or failed
// solve returns its error and stores nothing, with the cancellation
// semantics of AcquireSolverContext and RunContext. The memo keeps at
// most 32 answers per Input (a fixed cap); past it new ps are solved and
// returned but not stored. Stored answers count toward MemoryBytes, so a
// cache budgeting Inputs by that figure charges them with their window
// and drops them when it evicts it.
func (in *Input) SolveContext(ctx context.Context, p float64) (pt *partition.Partition, hit bool, err error) {
	if err := validateP(p); err != nil {
		return nil, false, err
	}
	key := math.Float64bits(p)
	if pt := in.answers.lookup(key); pt != nil {
		return pt, true, nil
	}
	s, err := in.AcquireSolverContext(ctx)
	if err != nil {
		return nil, false, err
	}
	pt, err = s.RunContext(ctx, p)
	in.ReleaseSolver(s)
	if err != nil {
		return nil, false, err
	}
	return in.answers.store(key, pt), false, nil
}
