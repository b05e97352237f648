package dataset_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
)

// TestScannerOnWorkloads round-trips the emulators behind the benchmark's
// four workloads (BlueNile, Credit Card, high-cardinality uniform, COMPAS)
// at a reduced row count: WriteCSV writes encoding/csv's bytes, and ReadCSV
// and ReadCSVAppend (past 99% of the rows) read back the reference's
// datasets at GOMAXPROCS 1, 2 and 8 and at a block of a few dozen bytes.
func TestScannerOnWorkloads(t *testing.T) {
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%03d", i)
	}
	hicard := datagen.Spec{Name: "hicard"}
	for c := 0; c < 4; c++ {
		hicard.Cols = append(hicard.Cols, datagen.Col{Name: fmt.Sprintf("c%d", c), Values: vals})
	}
	const rows = 6000
	gens := map[string]func() (*dataset.Dataset, error){
		"bluenile":   func() (*dataset.Dataset, error) { return datagen.BlueNile(rows, 1) },
		"creditcard": func() (*dataset.Dataset, error) { return datagen.CreditCard(rows, 1) },
		"hicard":     func() (*dataset.Dataset, error) { return hicard.Generate(rows, 1) },
		"compas":     func() (*dataset.Dataset, error) { return datagen.COMPAS(rows, 1) },
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, gen := range gens {
		d, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := dataset.WriteCSV(&got, d); err != nil {
			t.Fatal(err)
		}
		if err := dataset.RefWriteCSV(&want, d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: WriteCSV differs from encoding/csv's writer", name)
		}
		text := want.String()
		opts := dataset.CSVOptions{Name: name}
		wantD, err := dataset.RefReadCSV(text, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		base := wantD.Head(rows / 2)
		appendOpts := dataset.CSVOptions{Name: name, SkipRows: rows - rows/100}
		wantDelta, err := dataset.RefReadCSV(text, base, appendOpts)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 2, 8} {
			for _, block := range []int{0, 37} {
				runtime.GOMAXPROCS(procs)
				restore := func() {}
				if block > 0 {
					restore = dataset.SetCSVBlockSize(block)
				}
				what := fmt.Sprintf("%s GOMAXPROCS %d block %d", name, procs, block)
				if gotD, err := dataset.ReadCSV(strings.NewReader(text), opts); err != nil {
					t.Errorf("%s: %v", what, err)
				} else if diff := dataset.DiffDatasets(gotD, wantD); diff != "" {
					t.Errorf("%s: %s", what, diff)
				}
				if gotDelta, err := dataset.ReadCSVAppend(strings.NewReader(text), base, appendOpts); err != nil {
					t.Errorf("%s: append: %v", what, err)
				} else if diff := dataset.DiffDatasets(gotDelta, wantDelta); diff != "" {
					t.Errorf("%s: append: %s", what, diff)
				}
				restore()
			}
		}
	}
}
