// BlueNile catalog: selectivity-style count estimation from a published
// label. A retailer publishes a 60-entry label for a 116,300-item catalog;
// a consumer estimates how many items match arbitrary attribute filters —
// without the catalog — and we score those estimates with the paper's
// absolute and q-error metrics, comparing against the naive independence
// assumption the label is designed to beat.
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
	d, err := datagen.BlueNile(116300, 1)
	if err != nil {
		return err
	}
	fmt.Printf("catalog: %s\n\n", d)

	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 60, FastEval: true})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "pcbl-bluenile-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := pcbl.SaveLabelArtifact(res.Label, dir); err != nil {
		return err
	}
	fmt.Printf("published label: %s, %d pattern counts\n\n",
		res.Attrs.Format(d.AttrNames()), res.Size)

	// The consumer side: only the label artifact.
	label, _, err := pcbl.OpenLabelArtifact(dir)
	if err != nil {
		return err
	}
	defer label.ReleaseSpill()

	queries := []map[string]string{
		{"cut": "Ideal", "polish": "Excellent"},
		{"cut": "Ideal", "polish": "Good"},
		{"shape": "Round", "cut": "Ideal", "polish": "Excellent", "symmetry": "Excellent"},
		{"shape": "Pear", "clarity": "IF"},
		{"color": "D", "clarity": "FL", "fluorescence": "None"},
		{"cut": "Astor Ideal", "symmetry": "Ideal"},
	}
	fmt.Printf("%-72s %9s %9s %7s\n", "filter", "estimate", "true", "q-err")
	for _, q := range queries {
		lp, err := pcbl.NewPattern(label.Dataset(), q)
		if err != nil {
			return err
		}
		est, err := label.EstimateCtx(nil, lp)
		if err != nil {
			return err
		}
		p, err := pcbl.NewPattern(d, q)
		if err != nil {
			return err
		}
		trueCount := pcbl.Count(d, p)
		fmt.Printf("%-72s %9.0f %9d %7.2f\n", format(q), est, trueCount, qerr(float64(trueCount), est))
	}

	// Compare against pure independence (what you would do with only the
	// marginal counts — no PC section).
	indep, err := pcbl.BuildLabel(d) // empty attribute set
	if err != nil {
		return err
	}
	eval := pcbl.Evaluate(res.Label, nil)
	evalIndep := pcbl.Evaluate(indep, nil)
	fmt.Printf("\nover all %d distinct catalog configurations:\n", eval.N)
	fmt.Printf("  label (%d counts):  max err %6.0f  mean err %6.2f  mean q %5.2f\n",
		res.Size, eval.MaxAbs, eval.MeanAbs, eval.MeanQ)
	fmt.Printf("  independence only:  max err %6.0f  mean err %6.2f  mean q %5.2f\n",
		evalIndep.MaxAbs, evalIndep.MeanAbs, evalIndep.MeanQ)
	return nil
}

func format(q map[string]string) string {
	out := ""
	for _, k := range []string{"shape", "cut", "color", "clarity", "polish", "symmetry", "fluorescence"} {
		if v, ok := q[k]; ok {
			if out != "" {
				out += " ∧ "
			}
			out += k + "=" + v
		}
	}
	return out
}

func qerr(c, est float64) float64 {
	if c <= 0 {
		c = 1
	}
	if est <= 0 {
		est = 1
	}
	if c > est {
		return c / est
	}
	return est / c
}
