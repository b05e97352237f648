// Quickstart: build a dataset, generate an optimal pattern count–based
// label for it, estimate pattern counts, render the nutrition label and
// publish it as an artifact — the paper's §II examples end to end on the
// Figure 2 sample data.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"pcbl"
)

// fig2CSV is the 18-tuple simplified COMPAS fragment of the paper's Fig 2.
const fig2CSV = `gender,age group,race,marital status
Female,under 20,African-American,single
Male,20-39,African-American,divorced
Male,under 20,Hispanic,single
Male,20-39,Caucasian,married
Female,20-39,African-American,divorced
Male,20-39,Caucasian,divorced
Female,20-39,African-American,married
Male,under 20,African-American,single
Female,20-39,Caucasian,divorced
Male,under 20,Caucasian,single
Male,20-39,Hispanic,divorced
Female,under 20,Hispanic,single
Female,20-39,Hispanic,married
Female,under 20,Caucasian,single
Female,20-39,Caucasian,married
Male,20-39,Hispanic,married
Male,20-39,African-American,married
Female,20-39,Hispanic,divorced
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Load the data.
	d, err := pcbl.ReadCSV(strings.NewReader(fig2CSV), pcbl.CSVOptions{Name: "compas-fig2"})
	if err != nil {
		return err
	}
	fmt.Println(d)

	// 2. Ask for the optimal label with a size budget of 5 pattern counts
	//    (the walkthrough of the paper's Example 3.7).
	res, err := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 5})
	if err != nil {
		return err
	}
	fmt.Printf("\noptimal label uses %s — %d pattern counts, max estimation error %.0f\n",
		res.Attrs.Format(d.AttrNames()), res.Size, res.MaxErr)

	// 3. Estimate a pattern the label does not store directly
	//    (Example 2.12: female, 20-39, married → estimate 3, true 3).
	p, err := pcbl.NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	if err != nil {
		return err
	}
	fmt.Printf("\npattern %v\n", map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married"})
	fmt.Printf("  estimated count: %.0f\n", res.Label.Estimate(p))
	fmt.Printf("  true count:      %d\n", pcbl.Count(d, p))

	// 4. Render the full nutrition label with its error summary (Fig 1).
	eval := pcbl.Evaluate(res.Label, nil)
	text, err := pcbl.RenderLabel(res.Label, &eval)
	if err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(text)

	// 5. Publish the label: the artifact directory is the metadata you
	//    would ship alongside the dataset. A consumer reopens it and
	//    estimates without the data.
	dir, err := os.MkdirTemp("", "pcbl-quickstart-*")
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
	q, err := pcbl.ParsePattern(published.Dataset(), "gender=Female,age group=20-39,marital status=married")
	if err != nil {
		return err
	}
	est, err := published.EstimateCtx(nil, q)
	if err != nil {
		return err
	}
	fmt.Printf("published label: estimated count %.0f from the artifact alone\n", est)
	return nil
}
