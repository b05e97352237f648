package main

import (
	"strings"
	"testing"
)

// TestBytesLimit pins the gate arithmetic, including a baseline recorded
// at 0 B/op, which a ratio alone cannot gate.
func TestBytesLimit(t *testing.T) {
	cases := []struct {
		base, got int64
		ratio     float64
		pass      bool
	}{
		{base: 1000, got: 2000, ratio: 2, pass: true},
		{base: 1000, got: 2001, ratio: 2, pass: false},
		{base: 0, got: 0, ratio: 2, pass: true},
		{base: 0, got: 2, ratio: 2, pass: true},
		// One allocation per op costs at least 8 bytes.
		{base: 0, got: 8, ratio: 2, pass: false},
		{base: 0, got: 3, ratio: 2, pass: false},
	}
	for _, c := range cases {
		if pass := float64(c.got) <= bytesLimit(c.base, c.ratio); pass != c.pass {
			t.Errorf("baseline %d B/op, measured %d, ratio %v: pass = %v, want %v", c.base, c.got, c.ratio, pass, c.pass)
		}
	}
}

// TestScanBench reads bytes/op past a custom metric and strips the
// GOMAXPROCS suffix.
func TestScanBench(t *testing.T) {
	out := `goos: linux
BenchmarkSpilledPCLookup/readers=1-2   	  100000	       139.1 ns/op	         1.000 hot-frac	       0 B/op	       0 allocs/op
BenchmarkSpilledPCLookup/readers=8-2   	  100000	       126.8 ns/op	         1.000 hot-frac	       8 B/op	       1 allocs/op
BenchmarkNoMem-2   	  5	       12 ns/op
PASS
`
	got, err := scanBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("scanned %d benchmarks, want the 2 with B/op: %v", len(got), got)
	}
	if r := got["SpilledPCLookup/readers=8"]; r.bytesPerOp != 8 || r.nsPerOp != 126.8 {
		t.Errorf("readers=8 = %+v, want 8 B/op at 126.8 ns/op", r)
	}
	if r, ok := got["SpilledPCLookup/readers=1"]; !ok || r.bytesPerOp != 0 {
		t.Errorf("readers=1 = %+v (found %v), want 0 B/op", r, ok)
	}
}
