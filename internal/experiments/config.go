// Package experiments regenerates every figure of the paper's evaluation
// (§IV): label accuracy against the PostgreSQL and sampling baselines in
// absolute max error (Fig 4) and mean q-error (Fig 5), label generation
// runtime as a function of the size bound (Fig 6), the data size (Fig 7) and
// the attribute count (Fig 8), the number of candidate attribute sets
// examined by the naive algorithm versus the optimized heuristic (Fig 9),
// and the optimal-label-versus-sub-labels comparison (Fig 10), plus the
// rendered nutrition label of Fig 1.
//
// Each experiment consumes a NamedDataset and a Config and produces a
// result value that renders to a paper-style text table (and, where the
// paper uses a line chart, an ASCII plot). Absolute runtimes differ from
// the paper's Python-on-laptop numbers by construction; the shapes — who
// wins, by what factor, where crossovers fall — are the reproduction target
// (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"time"

	"pcbl/internal/datagen"
	"pcbl/internal/dataset"
)

// Scale selects dataset sizes: the paper's full sizes or reduced ones for
// quick runs and tests.
type Scale string

const (
	// ScaleTiny is for unit tests: hundreds of rows.
	ScaleTiny Scale = "tiny"
	// ScaleSmall is for quick interactive runs: thousands of rows.
	ScaleSmall Scale = "small"
	// ScalePaper matches §IV-A: 116,300 / 60,843 / 30,000 rows.
	ScalePaper Scale = "paper"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale selects dataset sizes; ScaleSmall when empty.
	Scale Scale
	// Seed drives all synthetic generation and sampling.
	Seed uint64
	// Workers bounds search parallelism — sharded enumeration scans and
	// concurrent candidate evaluation (0 = NumCPU, 1 = sequential).
	Workers int
	// SamplingTrials is the number of independent samples averaged per
	// point; the paper uses 5.
	SamplingTrials int
	// Bounds overrides the per-dataset label-size bound grid.
	Bounds []int
	// NaiveBudget skips further naive-algorithm runs in a sweep once one
	// run exceeds it (the paper's naive run on Credit Card "did not
	// terminate within 30 minutes beyond bound of 50"). Zero means no
	// budget.
	NaiveBudget time.Duration
}

// WithDefaults fills zero values.
func (c Config) WithDefaults() Config {
	if c.Scale == "" {
		c.Scale = ScaleSmall
	}
	if c.SamplingTrials == 0 {
		c.SamplingTrials = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// NamedDataset couples a dataset with its bound grid.
type NamedDataset struct {
	// Name is the evaluation dataset's name ("BlueNile", "COMPAS",
	// "Credit Card").
	Name string
	// D is the data.
	D *dataset.Dataset
	// Bounds is the label-size bound grid for accuracy sweeps.
	Bounds []int
}

// rowsFor returns the generated row count per dataset and scale.
func rowsFor(name string, s Scale) int {
	switch s {
	case ScaleTiny:
		switch name {
		case "BlueNile":
			return 1500
		case "COMPAS":
			return 1200
		default:
			return 900
		}
	case ScalePaper:
		switch name {
		case "BlueNile":
			return datagen.BlueNileRows
		case "COMPAS":
			return datagen.COMPASRows
		default:
			return datagen.CreditCardRows
		}
	default: // small
		switch name {
		case "BlueNile":
			return 20000
		case "COMPAS":
			return 12000
		default:
			return 8000
		}
	}
}

// defaultBounds returns the paper's bound grid: 10–100, extended to 150 for
// Credit Card as in Fig 4.
func defaultBounds(name string, s Scale) []int {
	if s == ScaleTiny {
		return []int{10, 30, 50}
	}
	b := []int{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	if name == "Credit Card" {
		b = append(b, 125, 150)
	}
	return b
}

// BlueNile builds the BlueNile emulator at the configured scale.
func BlueNile(cfg Config) (NamedDataset, error) {
	cfg = cfg.WithDefaults()
	d, err := datagen.BlueNile(rowsFor("BlueNile", cfg.Scale), cfg.Seed)
	if err != nil {
		return NamedDataset{}, err
	}
	return NamedDataset{Name: "BlueNile", D: d, Bounds: boundsOr(cfg, "BlueNile")}, nil
}

// COMPAS builds the COMPAS emulator at the configured scale.
func COMPAS(cfg Config) (NamedDataset, error) {
	cfg = cfg.WithDefaults()
	d, err := datagen.COMPAS(rowsFor("COMPAS", cfg.Scale), cfg.Seed+1)
	if err != nil {
		return NamedDataset{}, err
	}
	return NamedDataset{Name: "COMPAS", D: d, Bounds: boundsOr(cfg, "COMPAS")}, nil
}

// CreditCard builds the Credit Card emulator at the configured scale.
func CreditCard(cfg Config) (NamedDataset, error) {
	cfg = cfg.WithDefaults()
	d, err := datagen.CreditCard(rowsFor("Credit Card", cfg.Scale), cfg.Seed+2)
	if err != nil {
		return NamedDataset{}, err
	}
	return NamedDataset{Name: "Credit Card", D: d, Bounds: boundsOr(cfg, "Credit Card")}, nil
}

// AllDatasets builds the full evaluation suite.
func AllDatasets(cfg Config) ([]NamedDataset, error) {
	var out []NamedDataset
	for _, f := range []func(Config) (NamedDataset, error){BlueNile, COMPAS, CreditCard} {
		nd, err := f(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, nd)
	}
	return out, nil
}

func boundsOr(cfg Config, name string) []int {
	if len(cfg.Bounds) > 0 {
		return append([]int(nil), cfg.Bounds...)
	}
	return defaultBounds(name, cfg.Scale)
}

// DatasetByName builds one dataset by its evaluation name.
func DatasetByName(name string, cfg Config) (NamedDataset, error) {
	switch name {
	case "BlueNile", "bluenile":
		return BlueNile(cfg)
	case "COMPAS", "compas":
		return COMPAS(cfg)
	case "Credit Card", "creditcard", "credit-card":
		return CreditCard(cfg)
	default:
		return NamedDataset{}, fmt.Errorf("experiments: unknown dataset %q", name)
	}
}
