// Command experiments regenerates the paper's evaluation figures (see
// EXPERIMENTS.md for the recorded paper-vs-measured comparison).
//
//	experiments -fig all  -scale small
//	experiments -fig 4    -dataset bluenile -scale paper
//	experiments -fig 6,9  -dataset creditcard -naive-budget 2m
//
// Figures: 1 (COMPAS nutrition label), 4 (absolute max error), 5 (mean
// q-error), 6 (runtime vs bound), 7 (runtime vs data size), 8 (runtime vs
// attribute count), 9 (candidate sets examined), 10 (optimal vs sub-labels).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pcbl/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "figures to run: all or comma list of 1,4,5,6,7,8,9,10")
	scale := flag.String("scale", "small", "dataset scale: tiny, small or paper")
	dsFlag := flag.String("dataset", "all", "dataset: all, bluenile, compas or creditcard")
	seed := flag.Uint64("seed", 1, "generation seed")
	workers := flag.Int("workers", 0, "search parallelism: enumeration scans and candidate evaluation (0 = NumCPU)")
	trials := flag.Int("trials", 5, "sampling baseline trials per point")
	naiveBudget := flag.Duration("naive-budget", 5*time.Minute, "skip naive runs after one exceeds this (0 = no budget)")
	maxFactor := flag.Int("max-factor", 10, "Fig 7 data-size factor sweep upper end")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	plots := flag.Bool("plots", true, "print ASCII plots alongside tables")
	flag.Parse()

	cfg := experiments.Config{
		Scale:          experiments.Scale(*scale),
		Seed:           *seed,
		Workers:        *workers,
		SamplingTrials: *trials,
		NaiveBudget:    *naiveBudget,
	}.WithDefaults()

	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		want[strings.TrimSpace(f)] = true
	}
	all := want["all"]

	var datasets []experiments.NamedDataset
	if *dsFlag == "all" {
		ds, err := experiments.AllDatasets(cfg)
		fatal(err)
		datasets = ds
	} else {
		nd, err := experiments.DatasetByName(*dsFlag, cfg)
		fatal(err)
		datasets = []experiments.NamedDataset{nd}
	}
	for _, nd := range datasets {
		fmt.Printf("dataset %-12s %d rows × %d attributes (scale %s)\n",
			nd.Name, nd.D.NumRows(), nd.D.NumAttrs(), cfg.Scale)
	}
	fmt.Println()

	emit := func(name string, t experiments.Table, plot string) {
		fmt.Println(t.Render())
		if *plots && plot != "" {
			fmt.Println(plot)
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, name+".csv")
			f, err := os.Create(path)
			fatal(err)
			fatal(t.WriteCSV(f))
			fatal(f.Close())
			fmt.Printf("(csv: %s)\n\n", path)
		}
	}

	for _, nd := range datasets {
		slug := strings.ToLower(strings.ReplaceAll(nd.Name, " ", ""))
		if (all || want["1"]) && nd.Name == "COMPAS" {
			out, err := experiments.RenderFig1(nd, cfg)
			fatal(err)
			fmt.Println("Fig 1 — COMPAS nutrition label")
			fmt.Println("==============================")
			fmt.Println(out)
		}
		if all || want["4"] || want["5"] {
			start := time.Now()
			res, err := experiments.RunAccuracy(nd, cfg)
			fatal(err)
			if all || want["4"] {
				emit("fig4_"+slug, res.Fig4Table(), res.Fig4Plot())
			}
			if all || want["5"] {
				emit("fig5_"+slug, res.Fig5Table(), res.Fig5Plot())
			}
			fmt.Printf("(accuracy sweep took %v)\n\n", time.Since(start).Round(time.Millisecond))
		}
		if all || want["6"] {
			res, err := experiments.RunGenTimeByBound(nd, cfg)
			fatal(err)
			emit("fig6_"+slug, res.Table(), res.Plot())
		}
		if all || want["7"] {
			res, err := experiments.RunGenTimeByDataSize(nd, cfg, *maxFactor)
			fatal(err)
			emit("fig7_"+slug, res.Table(), res.Plot())
		}
		if all || want["8"] {
			res, err := experiments.RunGenTimeByAttrCount(nd, cfg)
			fatal(err)
			emit("fig8_"+slug, res.Table(), res.Plot())
		}
		if all || want["9"] {
			res, err := experiments.RunCandidates(nd, cfg, nil)
			fatal(err)
			emit("fig9_"+slug, res.Table(), res.Plot())
		}
		if all || want["10"] {
			res, err := experiments.RunSubLabels(nd, cfg, 100)
			fatal(err)
			emit("fig10_"+slug, res.Table(), "")
			if res.HoldsAssumption() {
				fmt.Println("assumption holds: no drop-one sub-label beats the optimal label")
			} else {
				fmt.Println("assumption violated: a drop-one sub-label beats the optimal label")
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
