// Credit-card skew detection: use a pattern count–based label to surface
// data skew and correlated attributes (§I: "The count information may also
// reveal potential dependent or correlated attributes"). For every pair of
// attributes covered by the label, compare the label's exact pairwise
// counts with the counts an independence assumption would predict; large
// lift flags correlation, extreme shares flag skew.
package main

import (
	"fmt"
	"log"
	"sort"

	"pcbl"
	"pcbl/internal/datagen"
)

func main() {
	d, err := datagen.CreditCard(30000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiling %s\n\n", d)

	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 150, FastEval: true})
	if err != nil {
		log.Fatal(err)
	}
	label := res.Label
	fmt.Printf("label: %s — %d pattern counts (bound 150)\n\n",
		res.Attrs.Format(d.AttrNames()), res.Size)

	// 1. Skew report: pattern shares inside the label's attribute set.
	type share struct {
		pattern string
		count   int
	}
	var shares []share
	pl, err := label.Portable()
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range pl.PC {
		name := ""
		for i, v := range e.Values {
			if i > 0 {
				name += " × "
			}
			name += pl.LabelAttrs[i] + "=" + v
		}
		shares = append(shares, share{name, e.Count})
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].count > shares[j].count })
	fmt.Println("skew: heaviest patterns in the labeled attribute set")
	for i, s := range shares {
		if i >= 5 {
			break
		}
		fmt.Printf("  %6.2f%%  %s\n", 100*float64(s.count)/float64(d.NumRows()), s.pattern)
	}

	// 2. Correlation report: lift of observed pairwise counts over the
	//    independence prediction, for the months the label covers.
	fmt.Println("\ncorrelation: observed vs independence-predicted counts (lift > 2 or < 0.5)")
	attrs := res.Attrs.Members()
	names := d.AttrNames()
	reported := 0
	for x := 0; x < len(attrs) && reported < 10; x++ {
		for y := x + 1; y < len(attrs) && reported < 10; y++ {
			ax, ay := attrs[x], attrs[y]
			// Most common value of each attribute.
			vx, cx := topValue(d, ax)
			vy, cy := topValue(d, ay)
			p, err := pcbl.NewPattern(d, map[string]string{names[ax]: vx, names[ay]: vy})
			if err != nil {
				log.Fatal(err)
			}
			observed := label.Estimate(p) // exact: both attributes in S
			indep := float64(cx) * float64(cy) / float64(d.NumRows())
			if indep == 0 {
				continue
			}
			lift := observed / indep
			if lift > 2 || lift < 0.5 {
				reported++
				fmt.Printf("  %s=%s ∧ %s=%s: observed %.0f, independence predicts %.0f (lift %.1f×)\n",
					names[ax], vx, names[ay], vy, observed, indep, lift)
			}
		}
	}
	if reported == 0 {
		fmt.Println("  (no strong pairwise correlations inside the labeled set)")
	}

	// 3. The label's chosen attributes are themselves the finding: the
	//    search gravitates to the most correlated attribute group, because
	//    that is where independence estimation fails hardest.
	fmt.Printf("\nconclusion: the optimizer selected %s — these attributes carry the\n",
		res.Attrs.Format(names))
	fmt.Println("strongest joint structure in the data; treat them as dependent in any analysis.")
}

// topValue returns the most frequent value of attribute a and its count.
func topValue(d *pcbl.Dataset, a int) (string, int) {
	counts := d.ValueCounts(a)
	best, bestCount := 0, -1
	for i, c := range counts {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return d.Attr(a).Value(uint16(best + 1)), bestCount
}
