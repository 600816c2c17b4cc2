package ml

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a from-scratch one-hidden-layer perceptron (tanh hidden units,
// sigmoid output) trained by fixed-seed mini-batch SGD — the neural learner
// of the DL-perspective attack family (Li et al., DAC'19/TCAD'20). It is
// built for the same batch scoring contract as the compiled Ensemble:
// training folds the feature standardisation into the first-layer weights,
// so Prob/ProbBatch are pure affine-plus-tanh passes over the raw feature
// row — allocation-free and safe for concurrent use.
type MLP struct {
	// w1 is hidden×m row-major: w1[j*m+i] feeds feature column features[i]
	// into hidden unit j. Standardisation is pre-folded: these weights
	// apply to raw, unstandardised rows.
	w1, b1   []float64
	w2       []float64 // hidden output weights
	b2       float64
	features []int
	hidden   int
}

// MLPOptions configures training.
type MLPOptions struct {
	// Features restricts the model to these columns (nil = all).
	Features []int
	// Hidden is the hidden-layer width (default 16).
	Hidden int
	// Epochs over the training set (default 30).
	Epochs int
	// LearningRate for gradient descent (default 0.05).
	LearningRate float64
	// L2 regularisation strength (default 1e-4).
	L2 float64
	// BatchSize for mini-batches (default 64).
	BatchSize int
}

func (o MLPOptions) withDefaults(numFeatures int) MLPOptions {
	if len(o.Features) == 0 {
		o.Features = make([]int, numFeatures)
		for i := range o.Features {
			o.Features[i] = i
		}
	}
	if o.Hidden <= 0 {
		o.Hidden = 16
	}
	if o.Epochs <= 0 {
		o.Epochs = 30
	}
	if o.LearningRate <= 0 {
		o.LearningRate = 0.05
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

// TrainMLP fits the network to ds. All randomness (weight init, epoch
// shuffles) is drawn from rng, so a fixed seed reproduces the weights bit
// for bit regardless of hardware or worker count.
func TrainMLP(ds *Dataset, opts MLPOptions, rng *rand.Rand) (*MLP, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(len(ds.X[0]))
	for _, f := range opts.Features {
		if f < 0 || f >= len(ds.X[0]) {
			return nil, fmt.Errorf("ml: mlp feature %d out of range", f)
		}
	}
	m, h := len(opts.Features), opts.Hidden
	nn := &MLP{
		w1: make([]float64, h*m), b1: make([]float64, h),
		w2:       make([]float64, h),
		features: append([]int(nil), opts.Features...),
		hidden:   h,
	}

	// Standardise features before descent, exactly as TrainLogistic does:
	// raw layout magnitudes span 10^0..10^8.
	mean, sd := make([]float64, m), make([]float64, m)
	n := float64(ds.Len())
	for j, f := range nn.features {
		var s float64
		for _, row := range ds.X {
			s += row[f]
		}
		mean[j] = s / n
		var v float64
		for _, row := range ds.X {
			d := row[f] - mean[j]
			v += d * d
		}
		sd[j] = math.Sqrt(v / n)
		if sd[j] == 0 {
			sd[j] = 1
		}
	}

	// Deterministic Xavier-style init from the per-unit rng.
	scale1 := math.Sqrt(1 / float64(m))
	for i := range nn.w1 {
		nn.w1[i] = rng.NormFloat64() * scale1
	}
	scale2 := math.Sqrt(1 / float64(h))
	for j := range nn.w2 {
		nn.w2[j] = rng.NormFloat64() * scale2
	}

	x := make([]float64, m)     // standardised input row
	a := make([]float64, h)     // hidden activations
	dh := make([]float64, h)    // hidden deltas
	gw1 := make([]float64, h*m) // batch gradients
	gb1 := make([]float64, h)
	gw2 := make([]float64, h)
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
			for i := range gw1 {
				gw1[i] = 0
			}
			for j := range gb1 {
				gb1[j] = 0
			}
			for j := range gw2 {
				gw2[j] = 0
			}
			gb2 := 0.0
			for _, i := range idx[start:end] {
				row := ds.X[i]
				for j, f := range nn.features {
					x[j] = (row[f] - mean[j]) / sd[j]
				}
				var out float64
				for j := 0; j < h; j++ {
					z := nn.b1[j]
					w := nn.w1[j*m : (j+1)*m]
					for k, v := range x {
						z += w[k] * v
					}
					a[j] = math.Tanh(z)
					out += nn.w2[j] * a[j]
				}
				p := sigmoid(out + nn.b2)
				y := 0.0
				if ds.Y[i] {
					y = 1
				}
				e := p - y // dLoss/dPreSigmoid for cross-entropy
				for j := 0; j < h; j++ {
					gw2[j] += e * a[j]
					dh[j] = e * nn.w2[j] * (1 - a[j]*a[j])
					gb1[j] += dh[j]
					g := gw1[j*m : (j+1)*m]
					for k, v := range x {
						g[k] += dh[j] * v
					}
				}
				gb2 += e
			}
			lr := opts.LearningRate / float64(end-start)
			for i := range nn.w1 {
				nn.w1[i] -= lr * (gw1[i] + opts.L2*nn.w1[i])
			}
			for j := 0; j < h; j++ {
				nn.b1[j] -= lr * gb1[j]
				nn.w2[j] -= lr * (gw2[j] + opts.L2*nn.w2[j])
			}
			nn.b2 -= lr * gb2
		}
	}

	// Fold the standardisation into the first layer so inference needs no
	// scratch buffer: w1'[j][i] = w1[j][i]/sd[i] applied to the raw column,
	// b1'[j] = b1[j] − Σ_i w1[j][i]·mean[i]/sd[i].
	for j := 0; j < h; j++ {
		w := nn.w1[j*m : (j+1)*m]
		for i := range w {
			nn.b1[j] -= w[i] * mean[i] / sd[i]
			w[i] /= sd[i]
		}
	}
	return nn, nil
}

// Prob returns P(positive | x) for one raw (unstandardised) feature row.
// Allocation-free and safe for concurrent use: the network is read-only
// after training.
func (nn *MLP) Prob(x []float64) float64 {
	m := len(nn.features)
	var out float64
	for j := 0; j < nn.hidden; j++ {
		z := nn.b1[j]
		w := nn.w1[j*m : (j+1)*m]
		for i, f := range nn.features {
			z += w[i] * x[f]
		}
		out += nn.w2[j] * math.Tanh(z)
	}
	return sigmoid(out + nn.b2)
}

// ProbBatch scores a row-major feature matrix: out[r] receives exactly what
// Prob(rows[r*stride:(r+1)*stride]) returns. Allocation-free and safe for
// concurrent use, satisfying the pairs.BatchScorer contract.
func (nn *MLP) ProbBatch(rows []float64, stride int, out []float64) {
	n := len(out)
	if stride <= 0 || len(rows) < n*stride {
		panic(fmt.Sprintf("ml: ProbBatch matrix %d floats cannot hold %d rows of stride %d",
			len(rows), n, stride))
	}
	m := len(nn.features)
	for r := 0; r < n; r++ {
		row := rows[r*stride : (r+1)*stride]
		var o float64
		for j := 0; j < nn.hidden; j++ {
			z := nn.b1[j]
			w := nn.w1[j*m : (j+1)*m]
			for i, f := range nn.features {
				z += w[i] * row[f]
			}
			o += nn.w2[j] * math.Tanh(z)
		}
		out[r] = sigmoid(o + nn.b2)
	}
}

// Hidden returns the hidden-layer width.
func (nn *MLP) Hidden() int { return nn.hidden }

// Width returns the feature-row width the network reads: one past its
// highest input column.
func (nn *MLP) Width() int { return width(nn.features) }

// Features returns the feature subset the network scores.
func (nn *MLP) Features() []int { return append([]int(nil), nn.features...) }
