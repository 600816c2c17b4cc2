package ml

import (
	"math"
	"math/rand"
	"testing"
)

func tinyDataset() *Dataset {
	d := &Dataset{}
	d.Add([]float64{1, 10}, true)
	d.Add([]float64{2, 20}, false)
	d.Add([]float64{3, 30}, true)
	d.Add([]float64{4, 40}, false)
	return d
}

func TestDatasetBasics(t *testing.T) {
	d := tinyDataset()
	if d.Len() != 4 {
		t.Errorf("Len = %d, want 4", d.Len())
	}
	if d.Positives() != 2 {
		t.Errorf("Positives = %d, want 2", d.Positives())
	}
	if err := d.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
}

func TestDatasetValidateErrors(t *testing.T) {
	empty := &Dataset{}
	if empty.Validate() == nil {
		t.Error("empty dataset accepted")
	}
	ragged := tinyDataset()
	ragged.X[2] = []float64{1}
	if ragged.Validate() == nil {
		t.Error("ragged dataset accepted")
	}
	mismatched := tinyDataset()
	mismatched.Y = mismatched.Y[:3]
	if mismatched.Validate() == nil {
		t.Error("row/label mismatch accepted")
	}
}

func TestSubset(t *testing.T) {
	d := tinyDataset()
	s := d.Subset([]int{2, 0})
	if s.Len() != 2 {
		t.Fatalf("subset len = %d, want 2", s.Len())
	}
	if s.X[0][0] != 3 || !s.Y[0] {
		t.Error("subset row 0 wrong")
	}
	if s.X[1][0] != 1 || !s.Y[1] {
		t.Error("subset row 1 wrong")
	}
}

func TestBootstrapSizeAndSource(t *testing.T) {
	d := tinyDataset()
	rng := rand.New(rand.NewSource(1))
	b := d.Bootstrap(rng)
	if b.Len() != d.Len() {
		t.Fatalf("bootstrap len = %d, want %d", b.Len(), d.Len())
	}
	orig := map[float64]bool{1: true, 2: true, 3: true, 4: true}
	for _, row := range b.X {
		if !orig[row[0]] {
			t.Fatalf("bootstrap row %v not from source", row)
		}
	}
}

// TestSplitFracDisjointAndComplete splits 100 rows at fractions inside
// and outside [0, 1]: the parts always cover every row once, a fraction
// outside is clamped (NaN to 0), and each split draws one permutation.
func TestSplitFracDisjointAndComplete(t *testing.T) {
	d := &Dataset{}
	for i := 0; i < 100; i++ {
		d.Add([]float64{float64(i)}, i%2 == 0)
	}
	for _, tc := range []struct {
		frac  float64
		first int
	}{
		{0.3, 30}, {math.NaN(), 0}, {math.Inf(1), 100}, {math.Inf(-1), 0},
		{-0.5, 0}, {0, 0}, {1, 100}, {1.5, 100},
	} {
		rng := rand.New(rand.NewSource(2))
		a, b := d.SplitFrac(tc.frac, rng)
		if a.Len() != tc.first || b.Len() != 100-tc.first {
			t.Fatalf("SplitFrac(%v) sizes %d/%d, want %d/%d", tc.frac, a.Len(), b.Len(), tc.first, 100-tc.first)
		}
		ref := rand.New(rand.NewSource(2))
		ref.Perm(100)
		if rng.Int63() != ref.Int63() {
			t.Errorf("SplitFrac(%v) drew other than one permutation", tc.frac)
		}
		seen := map[float64]int{}
		for _, row := range a.X {
			seen[row[0]]++
		}
		for _, row := range b.X {
			seen[row[0]]++
		}
		for v, c := range seen {
			if c != 1 {
				t.Fatalf("SplitFrac(%v): value %f appears %d times across split", tc.frac, v, c)
			}
		}
		if len(seen) != 100 {
			t.Fatalf("SplitFrac(%v) covers %d values, want 100", tc.frac, len(seen))
		}
	}
}

func TestColumn(t *testing.T) {
	d := tinyDataset()
	col := d.Column(1)
	want := []float64{10, 20, 30, 40}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("Column(1) = %v", col)
		}
	}
}
