// COMPAS audit: the paper's motivating scenario (§I). A risk-assessment
// dataset is profiled with a pattern count–based label; a judge — or an
// auditor — consults the label to learn whether an intersectional group
// (e.g. Hispanic women) is represented well enough for scores on that group
// to be trusted. Everything after label generation uses only the published
// label artifact, exactly as a downstream consumer without the raw data
// would.
package main

import (
	"fmt"
	"log"
	"os"

	"pcbl"
	"pcbl/internal/datagen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The COMPAS emulator stands in for the ProPublica dataset (see
	// DESIGN.md, "Substitutions"): same shape, same correlation structure.
	d, err := datagen.COMPAS(60843, 1)
	if err != nil {
		return err
	}
	fmt.Printf("profiling %s\n\n", d)

	// Generate the label a data publisher would ship: at most 100 pattern
	// counts, chosen to minimize the worst count-estimation error.
	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 100, FastEval: true})
	if err != nil {
		return err
	}
	eval := pcbl.Evaluate(res.Label, nil)
	fmt.Printf("label: %s — size %d, max err %.0f (%.2f%% of rows), mean err %.1f\n\n",
		res.Attrs.Format(d.AttrNames()), res.Size,
		eval.MaxAbs, 100*eval.MaxAbs/float64(d.NumRows()), eval.MeanAbs)

	// Publish the label; the auditor receives only this artifact.
	dir, err := os.MkdirTemp("", "pcbl-compas-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := pcbl.SaveLabelArtifact(res.Label, dir); err != nil {
		return err
	}
	published, _, err := pcbl.OpenLabelArtifact(dir)
	if err != nil {
		return err
	}
	defer published.ReleaseSpill()

	// The audit: estimate the size of every gender × race × age
	// intersection and flag groups below an adequacy threshold. The
	// threshold here follows the paper's example: groups too small to
	// support reliable risk scores.
	const threshold = 250
	fmt.Printf("intersectional representation audit (flagging groups under %d rows):\n\n", threshold)
	fmt.Printf("%-8s %-18s %-10s %10s %10s\n", "gender", "race", "age", "estimated", "true")
	flagged := 0
	for _, gender := range []string{"Female", "Male"} {
		for _, race := range []string{"African-American", "Caucasian", "Hispanic", "Other"} {
			for _, age := range []string{"under 20", "over 60"} {
				assign := map[string]string{"Gender": gender, "Race": race, "Age": age}
				q, err := pcbl.NewPattern(published.Dataset(), assign)
				if err != nil {
					return err
				}
				est, err := published.EstimateCtx(nil, q)
				if err != nil {
					return err
				}
				if est >= threshold {
					continue
				}
				flagged++
				// The auditor cannot see the true count; we print it here
				// to show the estimate is trustworthy.
				p, err := pcbl.NewPattern(d, assign)
				if err != nil {
					return err
				}
				fmt.Printf("%-8s %-18s %-10s %10.0f %10d  ⚠ under-represented\n",
					gender, race, age, est, pcbl.Count(d, p))
			}
		}
	}
	fmt.Printf("\n%d intersectional groups flagged as inadequately represented.\n", flagged)
	fmt.Println("A model's error rate on these groups cannot be assumed to match its average.")
	return nil
}
