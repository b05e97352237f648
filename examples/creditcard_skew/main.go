// Credit-card skew detection: use a pattern count–based label to surface
// data skew and correlated attributes (§I: "The count information may also
// reveal potential dependent or correlated attributes"). For every pair of
// attributes covered by the label, compare the label's exact pairwise
// counts with the counts an independence assumption would predict; large
// lift flags correlation, extreme shares flag skew. Both reports read only
// the published label artifact, not the data.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"pcbl"
	"pcbl/internal/datagen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	d, err := datagen.CreditCard(30000, 1)
	if err != nil {
		return err
	}
	fmt.Printf("profiling %s\n\n", d)

	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 150, FastEval: true})
	if err != nil {
		return err
	}
	fmt.Printf("label: %s — %d pattern counts (bound 150)\n\n",
		res.Attrs.Format(d.AttrNames()), res.Size)

	// Publish the label and continue from the artifact alone.
	dir, err := os.MkdirTemp("", "pcbl-creditcard-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := pcbl.SaveLabelArtifact(res.Label, dir); err != nil {
		return err
	}
	label, _, err := pcbl.OpenLabelArtifact(dir)
	if err != nil {
		return err
	}
	defer label.ReleaseSpill()
	schema := label.Dataset()
	names := schema.AttrNames()
	attrs := label.Attrs().Members()
	rows := float64(label.Rows())

	// 1. Skew report: pattern shares inside the label's attribute set.
	type share struct {
		pattern string
		count   int
	}
	var shares []share
	if err := label.PC().EachCtx(nil, schema.NumAttrs(), func(vals []uint16, c int) bool {
		name := ""
		for i, a := range attrs {
			if i > 0 {
				name += " × "
			}
			name += names[a] + "=" + schema.Attr(a).Value(vals[a])
		}
		shares = append(shares, share{name, c})
		return true
	}); err != nil {
		return err
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].count != shares[j].count {
			return shares[i].count > shares[j].count
		}
		return shares[i].pattern < shares[j].pattern
	})
	fmt.Println("skew: heaviest patterns in the labeled attribute set")
	for i, s := range shares {
		if i >= 5 {
			break
		}
		fmt.Printf("  %6.2f%%  %s\n", 100*float64(s.count)/rows, s.pattern)
	}

	// 2. Correlation report: lift of observed pairwise counts over the
	//    independence prediction, for the months the label covers.
	fmt.Println("\ncorrelation: observed vs independence-predicted counts (lift > 2 or < 0.5)")
	reported := 0
	for x := 0; x < len(attrs) && reported < 10; x++ {
		for y := x + 1; y < len(attrs) && reported < 10; y++ {
			ax, ay := attrs[x], attrs[y]
			// Most common value of each attribute.
			vx, cx := topValue(label, ax)
			vy, cy := topValue(label, ay)
			p, err := pcbl.NewPattern(schema, map[string]string{names[ax]: vx, names[ay]: vy})
			if err != nil {
				return err
			}
			observed, err := label.EstimateCtx(nil, p) // exact: both attributes in S
			if err != nil {
				return err
			}
			indep := float64(cx) * float64(cy) / rows
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
		label.Attrs().Format(names))
	fmt.Println("strongest joint structure in the data; treat them as dependent in any analysis.")
	return nil
}

// topValue returns the most frequent value of attribute a and its count,
// read from the label's VC section.
func topValue(l *pcbl.Label, a int) (string, int) {
	attr := l.Dataset().Attr(a)
	best, bestCount := uint16(1), -1
	for id := uint16(1); int(id) <= attr.DomainSize(); id++ {
		if c := l.ValueCount(a, id); c > bestCount {
			best, bestCount = id, c
		}
	}
	return attr.Value(best), bestCount
}
