package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// VecPool is a capacity-bucketed free-list arena for the flat slabs the
// counting engine churns through: dense count slabs ([]int32), key-block
// scratch ([]uint64) and spill buffers ([]byte). Frontier sizing and
// sharded PC builds draw their transient slabs from one pool, so
// steady-state enumeration recycles a small working set instead of
// allocating one count slab per candidate.
//
// All methods are safe for concurrent use and safe on a nil receiver: a
// nil *VecPool degrades to plain make/garbage-collection, so every entry
// point can thread an optional pool without branching.
type VecPool struct {
	mu       sync.Mutex
	limit    int64 // soft cap on retained free bytes; Put drops beyond it
	retained int64
	i32      slabBuckets[int32]
	u64      slabBuckets[uint64]
	b8       slabBuckets[byte]

	hits   atomic.Int64
	misses atomic.Int64
}

// DefaultVecPoolBudget bounds the free-list bytes a pool retains when the
// caller does not choose a limit. Slabs offered beyond it are dropped to
// the garbage collector rather than retained.
const DefaultVecPoolBudget int64 = 128 << 20

// NewVecPool returns a pool that retains up to roughly limit bytes of free
// slabs; limit <= 0 means DefaultVecPoolBudget.
func NewVecPool(limit int64) *VecPool {
	if limit <= 0 {
		limit = DefaultVecPoolBudget
	}
	return &VecPool{limit: limit}
}

// slabBuckets holds free slabs indexed by ⌊log2(cap)⌋, so any slab in
// bucket b has capacity in [2^b, 2^(b+1)) and every slab in bucket
// ⌈log2(n)⌉ can serve a request for n elements.
type slabBuckets[T int32 | uint64 | byte] struct {
	free [bucketCount][][]T
}

const bucketCount = 34

func bucketFor(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1)) // ⌈log2(n)⌉
}

func (b *slabBuckets[T]) get(n int) ([]T, bool) {
	b0 := bucketFor(n)
	// The bucket below holds slabs with capacity in [2^(b0-1), 2^b0), some
	// of which fit; scan it with an explicit capacity check so non-power-
	// of-two slabs offered by external callers are still reusable.
	if b0 > 0 {
		l := b.free[b0-1]
		for i := len(l) - 1; i >= 0; i-- {
			if cap(l[i]) >= n {
				s := l[i]
				l[i] = l[len(l)-1]
				l[len(l)-1] = nil
				b.free[b0-1] = l[:len(l)-1]
				return s[:n], true
			}
		}
	}
	for i := b0; i < bucketCount; i++ {
		if l := b.free[i]; len(l) > 0 {
			s := l[len(l)-1]
			l[len(l)-1] = nil
			b.free[i] = l[:len(l)-1]
			return s[:n], true
		}
	}
	return nil, false
}

func (b *slabBuckets[T]) put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	i := bits.Len(uint(c)) - 1 // ⌊log2(cap)⌋
	if i >= bucketCount {
		i = bucketCount - 1
	}
	b.free[i] = append(b.free[i], s[:0])
}

// get/put wrap one typed bucket set with the shared lock, hit/miss
// accounting and the retained-bytes cap.
func poolGet[T int32 | uint64 | byte](p *VecPool, b *slabBuckets[T], n int, zero bool, elemSize int64) []T {
	if p == nil {
		return make([]T, n)
	}
	p.mu.Lock()
	s, ok := b.get(n)
	if ok {
		p.retained -= int64(cap(s)) * elemSize
	}
	p.mu.Unlock()
	if !ok {
		p.misses.Add(1)
		// Round fresh slabs up to power-of-two capacity so a later Put
		// lands them in the bucket an equal-sized Get searches first.
		c := n
		if n > 1 {
			c = 1 << bits.Len(uint(n-1))
		}
		return make([]T, n, c)
	}
	p.hits.Add(1)
	if zero {
		clear(s)
	}
	return s
}

func poolPut[T int32 | uint64 | byte](p *VecPool, b *slabBuckets[T], s []T, elemSize int64) {
	if p == nil || cap(s) == 0 {
		return
	}
	bytes := int64(cap(s)) * elemSize
	p.mu.Lock()
	if p.retained+bytes > p.limit {
		p.mu.Unlock()
		return // over the soft cap: let the GC take it
	}
	p.retained += bytes
	b.put(s)
	p.mu.Unlock()
}

// Int32 returns a length-n slab with capacity >= n. With zero set the
// prefix [0, n) is cleared; without it the contents are arbitrary (callers
// that overwrite every element skip the memclr).
func (p *VecPool) Int32(n int, zero bool) []int32 {
	if p == nil {
		return make([]int32, n)
	}
	return poolGet(p, &p.i32, n, zero, 4)
}

// PutInt32 returns a slab to the pool. Nil pools and nil or zero-capacity
// slices are ignored, so callers can unconditionally return optional slabs.
func (p *VecPool) PutInt32(s []int32) {
	if p == nil {
		return
	}
	poolPut(p, &p.i32, s, 4)
}

// Uint64 returns a length-n uint64 slab (key-block scratch); see Int32 for
// the zero contract.
func (p *VecPool) Uint64(n int, zero bool) []uint64 {
	if p == nil {
		return make([]uint64, n)
	}
	return poolGet(p, &p.u64, n, zero, 8)
}

// PutUint64 returns a slab to the pool.
func (p *VecPool) PutUint64(s []uint64) {
	if p == nil {
		return
	}
	poolPut(p, &p.u64, s, 8)
}

// GetBytes returns a length-n byte buffer with arbitrary contents (spill
// write buffers and read chunks overwrite what they use). Together with
// PutBytes it makes *VecPool satisfy spill.BufPool, so the external
// group-by's temp-file buffers recycle through the same arena as the
// in-memory engine's slabs.
func (p *VecPool) GetBytes(n int) []byte {
	if p == nil {
		return make([]byte, n)
	}
	return poolGet(p, &p.b8, n, false, 1)
}

// PutBytes returns a byte buffer to the pool.
func (p *VecPool) PutBytes(b []byte) {
	if p == nil {
		return
	}
	poolPut(p, &p.b8, b, 1)
}

// Stats returns the cumulative number of requests served from the free
// lists (hits) and by fresh allocation (misses). Zero on a nil pool.
func (p *VecPool) Stats() (hits, misses int64) {
	if p == nil {
		return 0, 0
	}
	return p.hits.Load(), p.misses.Load()
}

// RetainedBytes reports the bytes currently sitting in the free lists.
func (p *VecPool) RetainedBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.retained
}
