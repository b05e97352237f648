package experiments

import (
	"fmt"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

// RenderFig1 reproduces Figure 1: the nutrition label computed for (a
// simplified version of) the COMPAS dataset — value counts for the
// demographic attributes, pattern counts over {gender, race}, and the error
// summary (average error, maximal error, standard deviation) of the label
// against P = P_A.
func RenderFig1(nd NamedDataset, cfg Config) (string, error) {
	cfg = cfg.WithDefaults()
	d := nd.D
	gIdx, ok := d.AttrIndex("Gender")
	if !ok {
		return "", fmt.Errorf("experiments: dataset %q has no Gender attribute", nd.Name)
	}
	rIdx, ok := d.AttrIndex("Race")
	if !ok {
		return "", fmt.Errorf("experiments: dataset %q has no Race attribute", nd.Name)
	}
	s := lattice.NewAttrSet(gIdx, rIdx)
	l, err := core.BuildLabel(d, s, core.CountOptions{Workers: 1})
	if err != nil {
		return "", err
	}
	ps := core.DistinctTuples(d)
	eval := core.Evaluate(l, ps, core.EvalOptions{Workers: cfg.Workers})
	return core.Render(l, core.RenderOptions{
		VCAttrs: []string{"Gender", "Age", "Race", "MaritalStatus"},
		Eval:    &eval,
	})
}
