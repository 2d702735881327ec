package gpu

import (
	"errors"
	"fmt"
)

// Ptr is an opaque device-memory handle. The zero Ptr is the null pointer.
type Ptr uint64

// ErrOutOfMemory is returned by Malloc when the request exceeds the free
// device memory.
var ErrOutOfMemory = errors.New("gpu: out of device memory")

// ErrBadPointer is returned by Free (and size queries) for handles that
// were never allocated or were already freed.
var ErrBadPointer = errors.New("gpu: invalid device pointer")

// allocator tracks device-memory occupancy. Fragmentation is not modelled:
// the study only needs capacity enforcement (the paper excludes the 2^15
// matrix at ≥4 threads because 3×4 GiB per thread overflows 40 GiB).
type allocator struct {
	capacity int64
	used     int64
	sizes    map[Ptr]int64
	next     Ptr
}

func newAllocator(capacity int64) *allocator {
	return &allocator{capacity: capacity, sizes: make(map[Ptr]int64)}
}

func (a *allocator) malloc(n int64) (Ptr, error) {
	if n <= 0 {
		return 0, fmt.Errorf("gpu: Malloc of %d bytes", n)
	}
	if a.used+n > a.capacity {
		return 0, fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, n, a.capacity-a.used)
	}
	a.next++
	p := a.next
	a.sizes[p] = n
	a.used += n
	return p, nil
}

func (a *allocator) free(p Ptr) error {
	n, ok := a.sizes[p]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	delete(a.sizes, p)
	a.used -= n
	return nil
}

func (a *allocator) size(p Ptr) (int64, error) {
	n, ok := a.sizes[p]
	if !ok {
		return 0, fmt.Errorf("%w: %#x", ErrBadPointer, uint64(p))
	}
	return n, nil
}
