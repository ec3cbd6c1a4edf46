// Package sharedstate exercises shardown's exec.Map worker rules: a
// worker closure may write only its own index's slot of captured
// memory, and nothing it reaches may write a package-level variable
// without synchronization.
package sharedstate

import (
	"sync"
	"sync/atomic"

	"repro/internal/exec"
)

var (
	counter   int
	total     atomic.Int64
	mu        sync.Mutex
	guarded   int
	helperHit int
)

// BadGlobal's worker bumps a package-level counter with a plain store —
// the race the analyzer exists to forbid.
func BadGlobal(n int) ([]int, error) {
	return exec.Map(0, n, func(i int) (int, error) {
		counter++ // want `unsynchronized write to package-level variable counter`
		return i, nil
	})
}

// GoodAtomic performs the same accumulation through sync/atomic: the
// write is a method call, not a store, and passes.
func GoodAtomic(n int) ([]int, error) {
	return exec.Map(0, n, func(i int) (int, error) {
		total.Add(1)
		return i, nil
	})
}

// GoodMutex holds the package mutex across the store.
func GoodMutex(n int) ([]int, error) {
	return exec.Map(0, n, func(i int) (int, error) {
		mu.Lock()
		guarded++
		mu.Unlock()
		return i, nil
	})
}

// bumpHelper is only dangerous because a worker reaches it — the
// interprocedural propagation is what finds this.
func bumpHelper() {
	helperHit++ // want `unsynchronized write to package-level variable helperHit`
}

// BadViaHelper's worker looks clean in isolation; the write hides one
// call away.
func BadViaHelper(n int) ([]int, error) {
	return exec.Map(0, n, func(i int) (int, error) {
		bumpHelper()
		return i, nil
	})
}

// BadCaptured writes a local captured from the submitting goroutine —
// a cross-worker race even though no package-level state is involved.
func BadCaptured(n int) (int, error) {
	sum := 0
	_, err := exec.Map(0, n, func(i int) (int, error) {
		sum += i // want `worker writes captured variable sum`
		return i, nil
	})
	return sum, err
}

// BadLockedCaptured holds a mutex across the captured store. The lock
// makes the write race-free, but which worker stores last still
// depends on the schedule.
func BadLockedCaptured(n int) (int, error) {
	var mu sync.Mutex
	last := 0
	_, err := exec.Map(0, n, func(i int) (int, error) {
		mu.Lock()
		last = i // want `worker writes captured variable last`
		mu.Unlock()
		return i, nil
	})
	return last, err
}

type tally struct{ total, runs int }

// BadCapturedField adds into a field of a captured struct: every worker
// stores to the same field.
func BadCapturedField(n int) (int, error) {
	var acc tally
	_, err := exec.Map(0, n, func(i int) (int, error) {
		acc.total += i // want `worker writes captured variable acc`
		return i, nil
	})
	return acc.total, err
}

// BadReceiverField counts runs on the method's receiver, one field all
// the workers share.
func (t *tally) BadReceiverField(n int) error {
	_, err := exec.Map(0, n, func(i int) (int, error) {
		t.runs++ // want `worker writes captured variable t`
		return i, nil
	})
	return err
}

// BadThroughPointer stores through a captured pointer.
func BadThroughPointer(n int, p *int) error {
	_, err := exec.Map(0, n, func(i int) (int, error) {
		*p = i // want `worker writes captured variable p`
		return i, nil
	})
	return err
}

// BadOtherSlotField writes a field of another index's element.
func BadOtherSlotField(n int) ([]tally, error) {
	out := make([]tally, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		j := n - 1 - i
		out[j].runs = i // want `worker writes captured variable out`
		return i, nil
	})
	return out, err
}

// BadNeighbourRead reads the slot the previous index's worker may be
// writing at the same moment.
func BadNeighbourRead(n int) ([]int, error) {
	out := make([]int, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		out[i] = i
		if i > 0 {
			return out[i-1], nil // want `reads out\[i - 1\], another index's slot`
		}
		return 0, nil
	})
	return out, err
}

// BadWholeSlot sums the whole result slice while the other workers
// are still filling it.
func BadWholeSlot(n int) ([]int, error) {
	out := make([]int, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		out[i] = i
		return sum(out), nil // want `uses slot slice "out" as a whole`
	})
	return out, err
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// GoodOwnSlotChain writes a field and a nested element under its own
// slot, and a struct of its own.
func GoodOwnSlotChain(n int) ([]tally, [][]int, error) {
	out := make([]tally, n)
	grid := make([][]int, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		var mine tally
		mine.runs = i
		out[i].runs = mine.runs
		grid[i] = make([]int, 2)
		grid[i][1] = i
		return i, nil
	})
	return out, grid, err
}

// GoodIndexSlot writes only its own index's slot of a captured slice —
// the sanctioned way for workers to publish results.
func GoodIndexSlot(n int) ([]int, error) {
	extra := make([]int, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		extra[i] = i * i
		return i, nil
	})
	return extra, err
}

// GoodIndexCount increments its own index's slot.
func GoodIndexCount(n int) ([]int, error) {
	hits := make([]int, n)
	_, err := exec.Map(0, n, func(i int) (int, error) {
		hits[i]++
		return i, nil
	})
	return hits, err
}

// Suppressed documents a deliberate exception: a monotonic gauge whose
// readers tolerate staleness.
func Suppressed(n int) ([]int, error) {
	return exec.Map(0, n, func(i int) (int, error) {
		counter = i //lint:allow shardown (approximate progress gauge; readers tolerate races)
		return i, nil
	})
}
