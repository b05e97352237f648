package pcbl_test

import (
	"fmt"
	"os"
	"strings"

	"pcbl"
)

const exampleCSV = `gender,age group,race,marital status
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

// ExampleGenerateLabel reproduces the paper's Example 3.7: on the Figure 2
// data with a size budget of 5, the optimal label uses {age group, marital
// status}.
func ExampleGenerateLabel() {
	d, _ := pcbl.ReadCSV(strings.NewReader(exampleCSV), pcbl.CSVOptions{})
	res, _ := pcbl.GenerateLabel(d, pcbl.GenerateOptions{Bound: 5, Engine: pcbl.EngineOptions{Workers: 1}})
	fmt.Printf("%s, size %d\n", res.Attrs.Format(d.AttrNames()), res.Size)
	// Output: {age group, marital status}, size 3
}

// ExampleLabel_Estimate reproduces Example 2.12: Est(p, l) = 6·9/18 = 3.
func ExampleLabel_Estimate() {
	d, _ := pcbl.ReadCSV(strings.NewReader(exampleCSV), pcbl.CSVOptions{})
	l, _ := pcbl.BuildLabel(d, "age group", "marital status")
	p, _ := pcbl.NewPattern(d, map[string]string{
		"gender": "Female", "age group": "20-39", "marital status": "married",
	})
	fmt.Printf("estimate %.0f, true %d\n", l.Estimate(p), pcbl.Count(d, p))
	// Output: estimate 3, true 3
}

// ExampleOpenLabelArtifact shows consuming a published label without
// access to the data: the publisher saves the label as an artifact, and a
// consumer reopens it and estimates from it alone.
func ExampleOpenLabelArtifact() {
	d, _ := pcbl.ReadCSV(strings.NewReader(exampleCSV), pcbl.CSVOptions{})
	l, _ := pcbl.BuildLabel(d, "gender", "race")
	dir, _ := os.MkdirTemp("", "pcbl-example-*")
	defer os.RemoveAll(dir)
	_ = pcbl.SaveLabelArtifact(l, dir)

	// Elsewhere, with only the artifact:
	published, _, _ := pcbl.OpenLabelArtifact(dir)
	p, _ := pcbl.ParsePattern(published.Dataset(), "gender=Female, race=Hispanic, marital status=divorced")
	est, _ := published.EstimateCtx(nil, p)
	fmt.Printf("≈ %.0f rows\n", est)
	// Output: ≈ 1 rows
}
