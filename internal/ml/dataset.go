// Package ml is a from-scratch reimplementation of the machine-learning
// components the paper uses from Weka: decision trees (REPTree with
// reduced-error pruning, and the unpruned RandomTree), the Bagging
// meta-classifier with soft voting over per-leaf class frequencies, and the
// attribute-ranking metrics (information gain, correlation coefficient, and
// Fisher's discriminant ratio).
package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a dense binary-classification dataset. Rows of X are feature
// vectors; Y[i] is true for positive samples (matching v-pin pairs).
type Dataset struct {
	X [][]float64
	Y []bool
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// Add appends one sample. The caller retains ownership of x; Add does not
// copy it, so callers generating rows in a reused buffer must clone first.
func (d *Dataset) Add(x []float64, y bool) {
	d.X = append(d.X, x)
	d.Y = append(d.Y, y)
}

// Positives returns the number of positive samples.
func (d *Dataset) Positives() int {
	n := 0
	for _, y := range d.Y {
		if y {
			n++
		}
	}
	return n
}

// Validate checks the dataset is non-empty, rectangular with at least one
// column, and finite. Tree induction needs all three: a zero-width row has
// no feature to split on, and a NaN has no place in a sorted column, so a
// tree grown over one would depend on the sort algorithm.
func (d *Dataset) Validate() error {
	if len(d.X) == 0 {
		return fmt.Errorf("ml: empty dataset")
	}
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(d.X), len(d.Y))
	}
	w := len(d.X[0])
	if w == 0 {
		return fmt.Errorf("ml: row 0 has width 0, want at least one feature")
	}
	for i, row := range d.X {
		if len(row) != w {
			return fmt.Errorf("ml: row %d has width %d, want %d", i, len(row), w)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("ml: row %d column %d is %v, want a finite value", i, j, v)
			}
		}
	}
	return nil
}

// Subset returns a view of the dataset restricted to the given row indices.
// The underlying rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		X: make([][]float64, len(idx)),
		Y: make([]bool, len(idx)),
	}
	for i, j := range idx {
		s.X[i] = d.X[j]
		s.Y[i] = d.Y[j]
	}
	return s
}

// Bootstrap returns a bootstrap resample of d (sampling with replacement,
// same size), as used by Bagging. It draws exactly the rows Bagging's
// trainers draw from the same rng.
func (d *Dataset) Bootstrap(rng *rand.Rand) *Dataset {
	return d.Subset(drawRows(make([]int, d.Len()), d.Len(), rng))
}

// drawRows fills rows with uniform draws from [0, n), one rng.Intn(n) per
// element in order — the bootstrap draw — and returns it.
func drawRows[T int | int32](rows []T, n int, rng *rand.Rand) []T {
	for i := range rows {
		rows[i] = T(rng.Intn(n))
	}
	return rows
}

// SplitFrac partitions the dataset into two disjoint parts, the first
// holding approximately frac of the rows, shuffled by rng. REPTree uses
// this to hold out a pruning fold.
func (d *Dataset) SplitFrac(frac float64, rng *rand.Rand) (a, b *Dataset) {
	idx := rng.Perm(d.Len())
	cut := int(float64(d.Len()) * frac)
	return d.Subset(idx[:cut]), d.Subset(idx[cut:])
}

// Column extracts feature f of every row.
func (d *Dataset) Column(f int) []float64 {
	col := make([]float64, d.Len())
	for i, row := range d.X {
		col[i] = row[f]
	}
	return col
}
