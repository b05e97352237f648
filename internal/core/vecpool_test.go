package core

import (
	"sync"
	"testing"
)

func TestVecPoolRoundtrip(t *testing.T) {
	p := NewVecPool(0)
	s := p.Int32(100, true)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for i := range s {
		s[i] = int32(i)
	}
	p.PutInt32(s)
	if got := p.RetainedBytes(); got < 400 {
		t.Fatalf("RetainedBytes = %d after put, want >= 400", got)
	}
	// A smaller request must be served from the retained slab, zeroed.
	s2 := p.Int32(80, true)
	if cap(s2) < 100 {
		t.Fatalf("cap = %d, want the recycled slab (>= 100)", cap(s2))
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("slot %d = %d after zeroed get", i, v)
		}
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
	// Without zeroing the contents are arbitrary but the length is right.
	p.PutInt32(s2)
	if s3 := p.Int32(100, false); len(s3) != 100 {
		t.Fatalf("unzeroed len = %d, want 100", len(s3))
	}
}

func TestVecPoolTypesAndBuckets(t *testing.T) {
	p := NewVecPool(0)
	k := p.Uint64(4096, false)
	p.PutUint64(k)
	if got := p.Uint64(4096, false); cap(got) < 4096 {
		t.Fatalf("uint64 slab not recycled: cap %d", cap(got))
	}
	// A request larger than any retained slab is a miss.
	p.PutInt32(p.Int32(8, false))
	if s := p.Int32(1024, true); cap(s) < 1024 {
		t.Fatalf("large request got cap %d", cap(s))
	}
	if _, misses := p.Stats(); misses == 0 {
		t.Fatal("expected at least one miss")
	}
}

func TestVecPoolLimit(t *testing.T) {
	p := NewVecPool(512) // tiny: one 100-element int32 slab fills it
	p.PutInt32(make([]int32, 100))
	p.PutInt32(make([]int32, 100)) // over the cap: dropped
	if got := p.RetainedBytes(); got > 512 {
		t.Fatalf("RetainedBytes = %d, above the 512 limit", got)
	}
}

func TestVecPoolNilSafety(t *testing.T) {
	var p *VecPool
	if s := p.Int32(10, true); len(s) != 10 {
		t.Fatal("nil pool Int32 must fall back to make")
	}
	if s := p.Uint64(10, true); len(s) != 10 {
		t.Fatal("nil pool Uint64 must fall back to make")
	}
	p.PutInt32(make([]int32, 5))
	p.PutUint64(make([]uint64, 5))
	if h, m := p.Stats(); h != 0 || m != 0 {
		t.Fatal("nil pool stats must be zero")
	}
	if p.RetainedBytes() != 0 {
		t.Fatal("nil pool retains nothing")
	}
}

func TestVecPoolConcurrent(t *testing.T) {
	p := NewVecPool(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := p.Int32(64+i%32, true)
				for j := range s {
					if s[j] != 0 {
						panic("dirty zeroed slab")
					}
				}
				s[0] = 1
				p.PutInt32(s)
			}
		}()
	}
	wg.Wait()
}
