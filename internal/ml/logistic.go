package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// Logistic is an L2-regularised logistic-regression classifier trained by
// mini-batch gradient descent on standardised features. It extends the
// repository beyond the paper's tree ensembles: a linear baseline between
// the prior work's linear regression [5] and the Bagging models, used by
// the classifier-choice ablation.
type Logistic struct {
	w        []float64 // weights over standardised features
	b        float64
	mean, sd []float64 // feature standardisation
	features []int
}

// LogisticOptions configures training.
type LogisticOptions struct {
	// Features restricts the model to these columns (nil = all).
	Features []int
	// Epochs over the training set (default 50).
	Epochs int
	// LearningRate for gradient descent (default 0.1).
	LearningRate float64
	// L2 regularisation strength (default 1e-4).
	L2 float64
	// BatchSize for mini-batches (default 64).
	BatchSize int
}

func (o LogisticOptions) withDefaults(numFeatures int) LogisticOptions {
	if len(o.Features) == 0 {
		o.Features = make([]int, numFeatures)
		for i := range o.Features {
			o.Features[i] = i
		}
	}
	if o.Epochs <= 0 {
		o.Epochs = 50
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.1
	}
	if o.L2 < 0 {
		o.L2 = 0
	} else if o.L2 == 0 {
		o.L2 = 1e-4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	return o
}

// TrainLogistic fits the model to ds.
func TrainLogistic(ds *Dataset, opts LogisticOptions, rng *rand.Rand) (*Logistic, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(len(ds.X[0]))
	for _, f := range opts.Features {
		if f < 0 || f >= len(ds.X[0]) {
			return nil, fmt.Errorf("ml: logistic feature %d out of range", f)
		}
	}
	m := len(opts.Features)
	lg := &Logistic{
		w:        make([]float64, m),
		mean:     make([]float64, m),
		sd:       make([]float64, m),
		features: append([]int(nil), opts.Features...),
	}

	// Standardise features: gradient descent on raw layout magnitudes
	// (10^0..10^8) would not converge.
	n := float64(ds.Len())
	for j, f := range lg.features {
		var s float64
		for _, row := range ds.X {
			s += row[f]
		}
		lg.mean[j] = s / n
		var v float64
		for _, row := range ds.X {
			d := row[f] - lg.mean[j]
			v += d * d
		}
		lg.sd[j] = math.Sqrt(v / n)
		if lg.sd[j] == 0 {
			lg.sd[j] = 1
		}
	}

	z := make([]float64, m)
	std := func(row []float64) []float64 {
		for j, f := range lg.features {
			z[j] = (row[f] - lg.mean[j]) / lg.sd[j]
		}
		return z
	}

	idx := make([]int, ds.Len())
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < opts.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += opts.BatchSize {
			end := start + opts.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			gw := make([]float64, m)
			gb := 0.0
			for _, i := range idx[start:end] {
				x := std(ds.X[i])
				p := sigmoid(dot(lg.w, x) + lg.b)
				y := 0.0
				if ds.Y[i] {
					y = 1
				}
				e := p - y
				for j := range gw {
					gw[j] += e * x[j]
				}
				gb += e
			}
			scale := opts.LearningRate / float64(end-start)
			for j := range lg.w {
				lg.w[j] -= scale * (gw[j] + opts.L2*lg.w[j])
			}
			lg.b -= scale * gb
		}
	}
	return lg, nil
}

// Prob returns P(positive | x).
func (lg *Logistic) Prob(x []float64) float64 {
	var s float64
	for j, f := range lg.features {
		s += lg.w[j] * (x[f] - lg.mean[j]) / lg.sd[j]
	}
	return sigmoid(s + lg.b)
}

// Predict applies threshold t.
func (lg *Logistic) Predict(x []float64, t float64) bool { return lg.Prob(x) >= t }

// Width returns the feature-row width the model reads: one past its
// highest input column.
func (lg *Logistic) Width() int { return width(lg.features) }

// width is one past the highest of the feature columns (0 for none).
func width(features []int) int {
	w := 0
	for _, f := range features {
		w = max(w, f+1)
	}
	return w
}

// Weights returns the learned weights over standardised features, aligned
// with the trained feature subset — interpretable importance signs.
func (lg *Logistic) Weights() ([]int, []float64) {
	return append([]int(nil), lg.features...), append([]float64(nil), lg.w...)
}

func sigmoid(v float64) float64 {
	if v >= 0 {
		return 1 / (1 + math.Exp(-v))
	}
	e := math.Exp(v)
	return e / (1 + e)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
