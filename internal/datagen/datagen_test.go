package datagen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"pcbl/internal/core"
	"pcbl/internal/lattice"
)

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Cols: []Col{{Name: "", Values: []string{"a"}}}},
		{Cols: []Col{{Name: "x", Values: nil}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}}, {Name: "x", Values: []string{"a"}}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}, Weights: []float64{1, 2}}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}, Parent: "nope", Map: map[string]string{"a": "a"}}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}}, {Name: "y", Values: []string{"b"}, Parent: "x"}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}}, {Name: "y", Values: []string{"b"}, Parent: "x", Map: map[string]string{"a": "zz"}}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}}, {Name: "y", Values: []string{"b"}, Parent: "x", CPT: map[string][]float64{"a": {1, 2}}}}},
		{Cols: []Col{{Name: "x", Values: []string{"a"}, Map: map[string]string{"a": "a"}}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := BlueNileSpec()
	a, err := spec.Generate(500, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(500, 99)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 500; r++ {
		for c := 0; c < a.NumAttrs(); c++ {
			if a.ID(r, c) != b.ID(r, c) {
				t.Fatalf("row %d col %d differs between identical seeds", r, c)
			}
		}
	}
	c, err := spec.Generate(500, 100)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for r := 0; r < 500 && same; r++ {
		for i := 0; i < a.NumAttrs(); i++ {
			if a.ID(r, i) != c.ID(r, i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestBlueNileShape(t *testing.T) {
	d, err := BlueNile(5000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumAttrs() != 7 {
		t.Fatalf("attrs = %d, want 7", d.NumAttrs())
	}
	if d.NumRows() != 5000 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	wantDoms := map[string]int{"shape": 10, "cut": 4, "color": 7, "clarity": 8, "polish": 4, "symmetry": 4, "fluorescence": 5}
	for name, dom := range wantDoms {
		i, ok := d.AttrIndex(name)
		if !ok {
			t.Fatalf("missing attribute %q", name)
		}
		if got := d.Attr(i).DomainSize(); got != dom {
			t.Errorf("%s domain = %d, want %d", name, got, dom)
		}
	}
}

func TestCOMPASShape(t *testing.T) {
	d, err := COMPAS(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumAttrs() != 17 {
		t.Fatalf("attrs = %d, want 17", d.NumAttrs())
	}
	// Gender marginal ≈ 78/22 (Fig 1).
	gi, _ := d.AttrIndex("Gender")
	counts := d.ValueCounts(gi)
	maleID, _ := d.Attr(gi).ID("Male")
	frac := float64(counts[maleID-1]) / 5000
	if frac < 0.74 || frac > 0.82 {
		t.Errorf("male fraction = %v, want ≈ 0.78", frac)
	}
}

// TestCOMPASDeterministicPairs: the emulator plants the deterministic
// attribute pairs the paper's optimal label exploits (§IV-E).
func TestCOMPASDeterministicPairs(t *testing.T) {
	d, err := COMPAS(3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{
		{"Scale_ID", "DisplayText"},
		{"RecSupervisionLevel", "RecSupervisionLevelText"},
		{"DecileScore", "ScoreText"},
	}
	for _, pair := range pairs {
		ai, _ := d.AttrIndex(pair[0])
		bi, _ := d.AttrIndex(pair[1])
		seen := make(map[uint16]uint16)
		for r := 0; r < d.NumRows(); r++ {
			a, b := d.ID(r, ai), d.ID(r, bi)
			if prev, ok := seen[a]; ok && prev != b {
				t.Errorf("%s=%d maps to both %d and %d — pair not functional", pair[0], a, prev, b)
				break
			}
			seen[a] = b
		}
	}
}

// TestCOMPASCorrelationStrength: the deterministic cluster must make a label
// over it dramatically better than independence for those attributes.
func TestCOMPASCorrelationStrength(t *testing.T) {
	d, err := COMPAS(5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := d.ProjectNames("DecileScore", "ScoreText", "RecSupervisionLevel")
	if err != nil {
		t.Fatal(err)
	}
	ps := core.DistinctTuples(proj)
	indep := must(core.BuildLabel(proj, lattice.AttrSet(0), core.CountOptions{Workers: 1}))
	labeled := must(core.BuildLabel(proj, lattice.NewAttrSet(0, 1), core.CountOptions{Workers: 1})) // DecileScore+ScoreText
	ei := core.Evaluate(indep, ps, core.EvalOptions{})
	el := core.Evaluate(labeled, ps, core.EvalOptions{})
	if el.MaxAbs >= ei.MaxAbs {
		t.Errorf("correlated label max err %v not below independence %v", el.MaxAbs, ei.MaxAbs)
	}
}

func TestCreditCardShape(t *testing.T) {
	d, err := CreditCard(4000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumAttrs() != 24 {
		t.Fatalf("attrs = %d, want 24", d.NumAttrs())
	}
	if d.NumRows() != 4000 {
		t.Fatalf("rows = %d", d.NumRows())
	}
	// Every attribute must be categorical with a small domain after the
	// 5-bin bucketization (repayment statuses keep ≤ 11 raw values only if
	// they had ≤ 5 distinct values; otherwise they are bucketized too).
	for i := 0; i < d.NumAttrs(); i++ {
		if got := d.Attr(i).DomainSize(); got > CreditCardBins && got > 11 {
			t.Errorf("%s domain = %d, too large", d.Attr(i).Name(), got)
		}
	}
}

// TestCreditCardSerialCorrelation: adjacent monthly repayment statuses must
// correlate far above independence.
// TestCreditCardPinned pins the full-size Credit Card emulator: a digest of
// every attribute's name, dictionary in identifier order and identifier
// column, recorded before bucketization was rebuilt by value identifier.
func TestCreditCardPinned(t *testing.T) {
	want := map[uint64]string{
		1: "930d82ff753370bca4c4fd5a1b3b47f61e4841156d34ce8e1a79c30e74a532d8",
		2: "a1cdc64da3c80a0b5cfa7dfc2c17d25dedf730fbca3fdb81b20730bc2f52208c",
		3: "81a835d190bd3f58e23ff3c21098db5c390fcce2280f3fdce795dc304ff84302",
	}
	for seed := uint64(1); seed <= 3; seed++ {
		d := must(CreditCard(CreditCardRows, seed))
		h := sha256.New()
		for a := 0; a < d.NumAttrs(); a++ {
			attr := d.Attr(a)
			fmt.Fprintf(h, "%s\x00%d\x00", attr.Name(), attr.DomainSize())
			for _, v := range attr.Domain() {
				fmt.Fprintf(h, "%s\x00", v)
			}
			binary.Write(h, binary.LittleEndian, d.Col(a))
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[seed] {
			t.Errorf("seed %d: digest %s, want %s", seed, got, want[seed])
		}
	}
}

func TestCreditCardSerialCorrelation(t *testing.T) {
	d, err := CreditCard(4000, 6)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := d.AttrIndex("PAY_0")
	p2, _ := d.AttrIndex("PAY_2")
	agree := 0
	for r := 0; r < d.NumRows(); r++ {
		if d.Value(r, p0) == d.Value(r, p2) {
			agree++
		}
	}
	frac := float64(agree) / float64(d.NumRows())
	if frac < 0.30 {
		t.Errorf("adjacent-month agreement %v too low — serial correlation missing", frac)
	}
}

func TestAugment(t *testing.T) {
	d, err := BlueNile(1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Augment(d, 2000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if aug.NumRows() != 3000 {
		t.Fatalf("rows = %d, want 3000", aug.NumRows())
	}
	// Prefix preserved exactly.
	for r := 0; r < 1000; r += 97 {
		for a := 0; a < d.NumAttrs(); a++ {
			if aug.ID(r, a) != d.ID(r, a) {
				t.Fatalf("original row %d modified", r)
			}
		}
	}
	// Domains unchanged (augmentation draws from active domains).
	for a := 0; a < d.NumAttrs(); a++ {
		if aug.Attr(a).DomainSize() != d.Attr(a).DomainSize() {
			t.Errorf("domain of %s changed", d.Attr(a).Name())
		}
	}
	if _, err := Augment(d, -1, 0); err == nil {
		t.Error("negative augmentation accepted")
	}
}

func TestScale(t *testing.T) {
	d, err := BlueNile(500, 9)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Scale(d, 3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 1500 {
		t.Errorf("rows = %d, want 1500", s.NumRows())
	}
	if _, err := Scale(d, 0, 0); err == nil {
		t.Error("factor 0 accepted")
	}
}

// TestAugmentUniformMarginals (property): augmented tuples are uniform over
// each domain, so with heavy augmentation marginals approach uniformity.
func TestAugmentUniformMarginals(t *testing.T) {
	d, err := BlueNile(200, 11)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Augment(d, 20000, 12)
	if err != nil {
		t.Fatal(err)
	}
	ci, _ := aug.AttrIndex("cut")
	_, fracs := aug.VCTable()
	for _, f := range fracs[ci] {
		if math.Abs(f-0.25) > 0.06 {
			t.Errorf("cut fraction %v too far from uniform 0.25", f)
		}
	}
}

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(5, 1)
	if len(w) != 5 {
		t.Fatal("length wrong")
	}
	for i := 1; i < len(w); i++ {
		if w[i] >= w[i-1] {
			t.Error("weights not decreasing")
		}
	}
	if math.Abs(w[0]-1) > 1e-12 || math.Abs(w[1]-0.5) > 1e-12 {
		t.Errorf("w = %v", w)
	}
}

// drawLinear is draw's reference: the first index whose cumulative weight
// exceeds the draw, found by scanning.
func drawLinear(rng *rand.Rand, cum []float64) int {
	total := cum[len(cum)-1]
	if total <= 0 {
		return 0
	}
	x := rng.Float64() * total
	for i, c := range cum {
		if x < c {
			return i
		}
	}
	return len(cum) - 1
}

// TestDrawMatchesLinearScan: draw's binary search picks the index the
// linear scan picks for every draw of a seeded stream, so generated
// datasets do not change, on a 200-value domain (pcblbench's hicard
// columns) and on vectors with zero weights, which must never be drawn.
func TestDrawMatchesLinearScan(t *testing.T) {
	for _, tc := range []struct {
		name    string
		weights []float64
		n       int
	}{
		{"uniform-200", nil, 200},
		{"zipf-200", ZipfWeights(200, 1.1), 200},
		{"zero-weights", []float64{0, 0, 3, 0, 1, 0, 0, 2.5, 0}, 9},
		{"one-nonzero", []float64{0, 0, 0, 1, 0}, 5},
		{"all-zero", []float64{0, 0, 0}, 3},
	} {
		cum := cumulative(tc.weights, tc.n)
		got, want := rand.New(rand.NewPCG(7, 11)), rand.New(rand.NewPCG(7, 11))
		for i := 0; i < 50000; i++ {
			g, w := draw(got, cum), drawLinear(want, cum)
			if g != w {
				t.Fatalf("%s: draw %d picked %d, linear scan %d", tc.name, i, g, w)
			}
			if tc.weights != nil && tc.weights[g] == 0 && cum[len(cum)-1] > 0 {
				t.Fatalf("%s: draw %d picked zero-weight index %d", tc.name, i, g)
			}
		}
	}

	// Ties: weights totalling 8 and draws of exactly k/8 of it put x on
	// every cumulative weight, where the first weight above x must win.
	weights := []float64{0, 0, 3, 0, 1, 0, 0, 2, 2}
	cum := cumulative(weights, len(weights))
	got, want := rand.New(&eighths{}), rand.New(&eighths{})
	for k := 0; k < 8; k++ {
		g, w := draw(got, cum), drawLinear(want, cum)
		if g != w || weights[g] == 0 {
			t.Fatalf("x = %d: draw picked %d, linear scan %d (weights %v)", k, g, w, weights)
		}
	}
}

// eighths is a rand.Source whose Float64 draws are 0, 1/8, ..., 7/8.
type eighths struct{ k uint64 }

func (s *eighths) Uint64() uint64 {
	v := (s.k % 8) << 50 // Float64 is the low 53 bits over 2^53
	s.k++
	return v
}

// TestGenerateRowCountProperty (property): generation honors arbitrary row
// counts.
func TestGenerateRowCountProperty(t *testing.T) {
	spec := Spec{Name: "tiny", Cols: []Col{{Name: "x", Values: []string{"a", "b"}}}}
	prop := func(n uint16) bool {
		rows := int(n % 2048)
		d, err := spec.Generate(rows, 1)
		return err == nil && d.NumRows() == rows
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSpecsValidateThemselves(t *testing.T) {
	for _, s := range []Spec{BlueNileSpec(), COMPASSpec()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}
