package dataset

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"testing"
	"testing/quick"
)

func numericDataset(t *testing.T, n int, seed uint64) *Dataset {
	t.Helper()
	b := NewBuilder("nums", "v", "tag")
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		b.AppendStrings(fmt.Sprintf("%.2f", rng.Float64()*100), "t")
	}
	d, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestIsNumericAttr(t *testing.T) {
	d := numericDataset(t, 20, 1)
	if _, ok := numericDomain(d.Attr(0)); !ok {
		t.Error("numeric attribute not detected")
	}
	if _, ok := numericDomain(d.Attr(1)); ok {
		t.Error("string attribute detected as numeric")
	}
}

func TestBucketizeEqualWidth(t *testing.T) {
	d := numericDataset(t, 500, 2)
	out, err := Bucketize(d, []string{"v"}, BucketizeOptions{Bins: 5, Strategy: EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Attr(0).DomainSize(); got > 5 || got < 2 {
		t.Errorf("bucketized domain = %d, want 2..5", got)
	}
	if out.NumRows() != d.NumRows() {
		t.Error("row count changed")
	}
	// Untouched attribute keeps its values.
	if out.Value(0, 1) != "t" {
		t.Error("tag attribute modified")
	}
}

func TestBucketizeEqualFrequency(t *testing.T) {
	d := numericDataset(t, 1000, 3)
	out, err := Bucketize(d, []string{"v"}, BucketizeOptions{Bins: 5, Strategy: EqualFrequency})
	if err != nil {
		t.Fatal(err)
	}
	counts := out.ValueCounts(0)
	if len(counts) < 2 {
		t.Fatalf("only %d buckets", len(counts))
	}
	// Each bucket within a loose factor of the ideal share.
	ideal := 1000 / len(counts)
	for i, c := range counts {
		if c < ideal/3 || c > ideal*3 {
			t.Errorf("bucket %d holds %d, ideal %d", i, c, ideal)
		}
	}
}

func TestBucketizeSkipsSmallDomains(t *testing.T) {
	b := NewBuilder("small", "x")
	for _, v := range []string{"1", "2", "3", "1", "2"} {
		b.AppendStrings(v)
	}
	d, _ := b.Build()
	out, err := Bucketize(d, []string{"x"}, BucketizeOptions{Bins: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attr(0).DomainSize() != 3 {
		t.Error("small domain was rebucketized")
	}
}

func TestBucketizeErrors(t *testing.T) {
	d := numericDataset(t, 10, 4)
	if _, err := Bucketize(d, []string{"v"}, BucketizeOptions{Bins: 1}); err == nil {
		t.Error("1 bin accepted")
	}
	if _, err := Bucketize(d, []string{"nope"}, BucketizeOptions{Bins: 5}); err == nil {
		t.Error("unknown attribute accepted")
	}
	b := NewBuilder("mixed", "x")
	for i := 0; i < 10; i++ {
		b.AppendStrings(fmt.Sprintf("v%d", i))
	}
	md, _ := b.Build()
	if _, err := Bucketize(md, []string{"x"}, BucketizeOptions{Bins: 5}); err == nil {
		t.Error("non-numeric attribute accepted")
	}
}

func TestBucketizeAllNumeric(t *testing.T) {
	b := NewBuilder("m", "num", "cat")
	rng := rand.New(rand.NewPCG(5, 5))
	for i := 0; i < 200; i++ {
		b.AppendStrings(fmt.Sprintf("%d", rng.IntN(10000)), string(rune('a'+i%4)))
	}
	d, _ := b.Build()
	out, err := BucketizeAllNumeric(d, BucketizeOptions{Bins: 5, Strategy: EqualFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if out.Attr(0).DomainSize() > 5 {
		t.Error("numeric attribute not bucketized")
	}
	if out.Attr(1).DomainSize() != 4 {
		t.Error("categorical attribute modified")
	}
}

// TestBucketizePreservesRowMembership (property): every numeric value lands
// in a bucket whose printed bounds contain it.
func TestBucketizePreservesRowMembership(t *testing.T) {
	prop := func(seed uint64) bool {
		d := numericDatasetQuick(seed%1000+50, seed)
		out, err := Bucketize(d, []string{"v"}, BucketizeOptions{Bins: 4, Strategy: EqualWidth})
		if err != nil {
			return false
		}
		return out.NumRows() == d.NumRows() && out.Attr(0).DomainSize() <= 4
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func numericDatasetQuick(n, seed uint64) *Dataset {
	b := NewBuilder("nums", "v")
	rng := rand.New(rand.NewPCG(seed, 9))
	for i := uint64(0); i < n; i++ {
		b.AppendStrings(fmt.Sprintf("%.3f", rng.Float64()*1000-500))
	}
	d, err := b.Build()
	if err != nil {
		panic(err)
	}
	return d
}

func TestNullsSurviveBucketize(t *testing.T) {
	b := NewBuilder("n", "v")
	b.AppendStrings("1.5")
	b.AppendStrings("")
	b.AppendStrings("2.5")
	b.AppendStrings("100")
	b.AppendStrings("50")
	b.AppendStrings("75")
	b.AppendStrings("25")
	d, _ := b.Build()
	out, err := Bucketize(d, []string{"v"}, BucketizeOptions{Bins: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.ID(1, 0) != Null {
		t.Error("NULL lost in bucketization")
	}
	if out.NonNullCount(0) != 6 {
		t.Errorf("non-null = %d, want 6", out.NonNullCount(0))
	}
}

func TestBinStrategyString(t *testing.T) {
	if EqualWidth.String() != "equal-width" || EqualFrequency.String() != "equal-frequency" {
		t.Error("strategy names wrong")
	}
	if BinStrategy(9).String() == "" {
		t.Error("unknown strategy should still render")
	}
}

// TestBucketizeDistinctLabels: bounds that agree to six significant digits
// still print apart, so twelve values 1.0000000 … 1.0000011 in four
// equal-frequency bins keep four buckets.
func TestBucketizeDistinctLabels(t *testing.T) {
	b := NewBuilder("close", "v")
	for i := 0; i < 12; i++ {
		b.AppendStrings(fmt.Sprintf("1.%07d", i))
	}
	out, err := Bucketize(build(t, b), []string{"v"}, BucketizeOptions{Bins: 4, Strategy: EqualFrequency})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"[1,1.0000002)", "[1.0000002,1.0000005)", "[1.0000005,1.0000008)", "[1.0000008,1.0000011]"}
	if got := out.Attr(0).Domain(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("labels %q, want %q", got, want)
	}
	if got := out.ValueCounts(0); fmt.Sprint(got) != "[2 3 3 4]" {
		t.Errorf("bucket rows %v, want [2 3 3 4]", got)
	}
}

// TestBucketizeNonFinite: a value parsing to NaN or an infinity makes its
// attribute non-numeric, as any other token does.
func TestBucketizeNonFinite(t *testing.T) {
	for _, tok := range []string{"NaN", "Inf", "-Inf"} {
		b := NewBuilder("nf", "v")
		for i := 0; i < 20; i++ {
			b.AppendStrings(strconv.Itoa(i))
		}
		b.AppendStrings(tok).AppendStrings(tok)
		d := build(t, b)
		if _, ok := numericDomain(d.Attr(0)); ok {
			t.Errorf("%s: attribute is numeric", tok)
		}
		for _, s := range []BinStrategy{EqualWidth, EqualFrequency} {
			opts := BucketizeOptions{Bins: 5, Strategy: s}
			out, err := BucketizeAllNumeric(d, opts)
			if err != nil || out.Attr(0).DomainSize() != 21 {
				t.Errorf("%s %v: BucketizeAllNumeric = %v, %v; want the 21 values untouched", tok, s, out, err)
			}
			if _, err := Bucketize(d, []string{"v"}, opts); err == nil || err.Error() != `dataset: attribute "v" is not numeric` {
				t.Errorf("%s %v: Bucketize error %v", tok, s, err)
			}
		}
	}
}

// TestBucketizeEqualValues: distinct strings parsing to one number make
// one closed bucket.
func TestBucketizeEqualValues(t *testing.T) {
	b := NewBuilder("eq", "v")
	for _, v := range []string{"1", "1.0", "01", "1.00", "1"} {
		b.AppendStrings(v)
	}
	out, err := Bucketize(build(t, b), []string{"v"}, BucketizeOptions{Bins: 2, Strategy: EqualFrequency})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Attr(0).Domain(); len(got) != 1 || got[0] != "[1,1]" || out.NonNullCount(0) != 5 {
		t.Errorf("labels %q over %d rows, want [[1,1]] over 5", got, out.NonNullCount(0))
	}
}

// TestBucketizeMatchesReference holds Bucketize and BucketizeAllNumeric to
// the row-by-row reference on random tables with NULLs, a categorical
// attribute and slices whose dictionaries hold values no row has.
func TestBucketizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 40; trial++ {
		b := NewBuilder("r", "num", "cat", "int")
		n := 50 + rng.IntN(400)
		for i := 0; i < n; i++ {
			num := ""
			if rng.IntN(10) > 0 {
				num = strconv.FormatFloat(rng.NormFloat64()*100, 'f', rng.IntN(4), 64)
			}
			b.AppendStrings(num, string(rune('a'+rng.IntN(5))), strconv.Itoa(rng.IntN(30)))
		}
		d := build(t, b)
		if trial%2 == 1 {
			var err error
			if d, err = d.Slice(n/3, n); err != nil {
				t.Fatal(err)
			}
		}
		for _, s := range []BinStrategy{EqualWidth, EqualFrequency} {
			opts := BucketizeOptions{Bins: 2 + trial%5, Strategy: s}
			want, err := refBucketize(d, []string{"num", "int"}, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BucketizeAllNumeric(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			if diff := DiffDatasets(got, want); diff != "" {
				t.Fatalf("trial %d %v: BucketizeAllNumeric: %s", trial, s, diff)
			}
			want, _ = refBucketize(d, []string{"int"}, opts)
			if got, err = Bucketize(d, []string{"int"}, opts); err != nil {
				t.Fatal(err)
			}
			if diff := DiffDatasets(got, want); diff != "" {
				t.Fatalf("trial %d %v: Bucketize: %s", trial, s, diff)
			}
		}
	}
}
