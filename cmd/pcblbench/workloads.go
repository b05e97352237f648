package main

import (
	"fmt"

	"pcbl"
)

// workload is one seeded input set and traffic mix. Every size, count and
// rate is fixed here, measured once on the reference machine (README.md),
// and never adapts at run time: two commits compared on a workload run
// exactly the same work.
type workload struct {
	name string

	// rows is the dataset size at the first update's epoch: the base CSV
	// holds 99% of it and every update appends another 1% of it.
	rows int
	gen  func(rows int, seed uint64) (*pcbl.Dataset, error)

	// bound is the label-size bound of the search; 0 means no search: the
	// label covers every attribute.
	bound     int
	memBudget int64

	// rounds is the number of measured rounds; each times builds builds
	// and updatesPerRound updates, and serves a slice of the loops.
	rounds, builds int
	rate           float64 // open-loop offered rate, requests per second

	// updateBesideReads runs each round's updates on the served artifact,
	// during the round's closed-loop slice.
	updateBesideReads bool
}

var workloads = []*workload{
	// ROADMAP's reference pipeline. CSV parsing dominates build and update;
	// the 16-pattern label makes queries measure HTTP, not lookups.
	{
		name:   "bluenile-paper",
		rows:   genBlueNileRows,
		gen:    genBlueNile,
		bound:  50,
		rounds: 5,
		builds: 4,
		rate:   8000,
	},
	// The lattice-heavy search of Figs 6 and 8: evaluation dominates the
	// build.
	{
		name:   "creditcard-wide",
		rows:   genCreditCardRows,
		gen:    genCreditCard,
		bound:  100,
		rounds: 5,
		builds: 1,
		rate:   7000,
	},
	// The only workload that spills: the key fits uint64 but is beyond the
	// dense tier, the label is served merge-on-read and merges rewrite runs.
	{
		name:      "hicard-spill",
		rows:      200000,
		gen:       genHicard,
		memBudget: 4 << 20,
		rounds:    5,
		builds:    2,
		rate:      1200,
	},
	// Writes beside reads: updates, merges and reloads during the closed
	// loop.
	{
		name:              "serve-under-update",
		rows:              genCOMPASRows,
		gen:               genCOMPAS,
		bound:             100,
		rounds:            5,
		builds:            1,
		rate:              6500,
		updateBesideReads: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
