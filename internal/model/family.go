package model

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"sync"

	"repro/internal/ml"
	"repro/internal/obs"
	"repro/internal/pairs"
	"repro/internal/par"
	"repro/internal/rng"
)

// Registered family names. The empty string is the zero-value alias for
// FamilyBagging, so every pre-existing TrainOptions literal keeps meaning
// what it always did.
const (
	FamilyBagging  = "bagging"
	FamilyMLP      = "mlp"
	FamilyLogistic = "logistic"
)

// TrainContext carries everything a Family's deterministic training pass
// may consume: the training options, the random-stream coordinates
// (Seed, Unit, Fold), the worker budget, and the observability context.
// Families draw all randomness through Rng so a trained model's bits depend
// only on (Seed, Unit, Fold) — never on scheduling or hardware.
type TrainContext struct {
	Obs     *obs.Context
	Opts    TrainOptions
	Seed    int64
	Unit    int64
	Fold    int
	Workers int
}

// Rng derives the context's random stream at the given extra coordinates:
// rng.Derive(Seed, Unit, Fold, coords...). Each distinct coordinate tuple is
// an independent stream, which is how the bagging family trains its trees
// in parallel without sharing state.
func (c TrainContext) Rng(coords ...int64) *rand.Rand {
	units := append([]int64{c.Unit, int64(c.Fold)}, coords...)
	return rng.Derive(c.Seed, units...)
}

// Train looks up the options' learner family and fits it on ds: the one
// entry point every training stage (level 1, level 2, the proximity
// attack's validation model) trains through. The bagging family trains tree
// t on stream (Seed, Unit, Fold, t) and compiles into its flat-arena form;
// other families draw their own streams from the same coordinates, so
// every family's scorer is bit-identical at any worker count.
func (c TrainContext) Train(ds *ml.Dataset) (pairs.Scorer, error) {
	fam, err := FamilyByName(c.Opts.Family)
	if err != nil {
		return nil, err
	}
	return fam.Train(c, ds)
}

// Family is one learner family: a named, hashable, serializable way to turn
// a pair-sample dataset into a pairs.Scorer. Families are first-class
// citizens of the whole train stack — Spec hashes them, the artifact codec
// dispatches payload encoding through them, and the Store/checkpoint layers
// treat every family identically. This replaces the old opaque Learner
// closure, which could be neither hashed nor serialized and forced bypass
// branches into every one of those layers.
type Family interface {
	// Name is the registry key, e.g. "bagging".
	Name() string
	// HashOptions writes the family's canonical serialization of its
	// training-relevant options to w. It becomes part of Spec.Hash, so the
	// byte format is load-bearing: changing it reprices every cached
	// artifact of the family. The bagging family writes the exact line the
	// pre-family Spec.Hash wrote, keeping all historical hashes valid.
	HashOptions(w io.Writer, o TrainOptions)
	// Train fits a scorer using only streams derived from ctx.Rng, so the
	// result is bit-identical at any worker count.
	Train(ctx TrainContext, ds *ml.Dataset) (pairs.Scorer, error)
	// Encode serializes a scorer this family trained; Decode inverts it
	// bit-exactly. Together they are the artifact codec's per-family
	// payload sections.
	Encode(sc pairs.Scorer) ([]byte, error)
	Decode(data []byte) (pairs.Scorer, error)
}

var (
	familyMu  sync.RWMutex
	familyReg = map[string]Family{}
)

// Register adds a family to the registry. It panics on an empty name or a
// duplicate registration: families are process-global wiring, and a silent
// overwrite would reprice spec hashes out from under the Store.
func Register(f Family) {
	name := f.Name()
	if name == "" {
		panic("model: cannot register a family with an empty name")
	}
	familyMu.Lock()
	defer familyMu.Unlock()
	if _, dup := familyReg[name]; dup {
		panic(fmt.Sprintf("model: family %q registered twice", name))
	}
	familyReg[name] = f
}

// FamilyByName resolves a family; "" means FamilyBagging. Unknown names are
// an error for callers validating user input (TrainOptions.Validate, the
// serve layer's 400 path).
func FamilyByName(name string) (Family, error) {
	if name == "" {
		name = FamilyBagging
	}
	familyMu.RLock()
	f, ok := familyReg[name]
	familyMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("model: unknown learner family %q (have %v)", name, Families())
	}
	return f, nil
}

// mustFamily resolves a family that validation already admitted; an
// unregistered name this deep is a programming error, not user input.
func mustFamily(name string) Family {
	f, err := FamilyByName(name)
	if err != nil {
		panic(err)
	}
	return f
}

// Families lists the registered family names, sorted.
func Families() []string {
	familyMu.RLock()
	defer familyMu.RUnlock()
	names := make([]string, 0, len(familyReg))
	for name := range familyReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register(baggingFamily{})
	Register(mlpFamily{})
	Register(logisticFamily{})
}

// baggingFamily is the paper's learner: a Bagging ensemble of decision
// trees, compiled to the flat-arena Ensemble for batch scoring.
type baggingFamily struct{}

func (baggingFamily) Name() string { return FamilyBagging }

// HashOptions writes exactly the line the pre-family Spec.Hash wrote for
// every spec, so each historical bagging hash stays byte-identical.
func (baggingFamily) HashOptions(w io.Writer, o TrainOptions) {
	fmt.Fprintf(w, "base=%d trees=%d traincap=%d\n", o.BaseKind, o.NumTrees, o.TrainCap)
}

func (baggingFamily) Train(ctx TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	streams := func(tree int) *rand.Rand { return ctx.Rng(int64(tree)) }
	b, err := ml.TrainBaggingStreams(ctx.Obs, ds, ctx.Opts.NumTrees,
		ctx.Opts.TreeOptions(), streams, par.Workers(ctx.Workers, ctx.Opts.NumTrees))
	if err != nil {
		return nil, err
	}
	return b.Compile(), nil
}

func (baggingFamily) Encode(sc pairs.Scorer) ([]byte, error) {
	e, ok := sc.(*ml.Ensemble)
	if !ok {
		return nil, fmt.Errorf("model: bagging artifact holds a %T, want *ml.Ensemble", sc)
	}
	return e.MarshalBinary()
}

func (baggingFamily) Decode(data []byte) (pairs.Scorer, error) {
	return ml.UnmarshalEnsemble(data)
}

// mlpFamily is the DL-perspective learner (Li et al., DAC'19/TCAD'20): a
// from-scratch multi-layer perceptron over the same pair samples, typically
// paired with the routing-hint feature block and the list-wise ranking head.
type mlpFamily struct{}

func (mlpFamily) Name() string { return FamilyMLP }

func (mlpFamily) HashOptions(w io.Writer, o TrainOptions) {
	fmt.Fprintf(w, "family=mlp hidden=%d epochs=%d rate=%016x traincap=%d\n",
		o.MLPHidden, o.MLPEpochs, math.Float64bits(o.MLPRate), o.TrainCap)
}

func (mlpFamily) options(o TrainOptions) ml.MLPOptions {
	return ml.MLPOptions{
		Features:     o.Features,
		Hidden:       o.MLPHidden,
		Epochs:       o.MLPEpochs,
		LearningRate: o.MLPRate,
	}
}

func (f mlpFamily) Train(ctx TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	return ml.TrainMLP(ds, f.options(ctx.Opts), ctx.Rng())
}

func (mlpFamily) Encode(sc pairs.Scorer) ([]byte, error) {
	nn, ok := sc.(*ml.MLP)
	if !ok {
		return nil, fmt.Errorf("model: mlp artifact holds a %T, want *ml.MLP", sc)
	}
	return nn.MarshalBinary()
}

func (mlpFamily) Decode(data []byte) (pairs.Scorer, error) {
	return ml.UnmarshalMLP(data)
}

// logisticFamily is the linear baseline of the classifier-choice ablation,
// promoted from a custom Learner closure to a full citizen of the registry.
type logisticFamily struct{}

func (logisticFamily) Name() string { return FamilyLogistic }

func (logisticFamily) HashOptions(w io.Writer, o TrainOptions) {
	fmt.Fprintf(w, "family=logistic traincap=%d\n", o.TrainCap)
}

func (logisticFamily) Train(ctx TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	return ml.TrainLogistic(ds, ml.LogisticOptions{Features: ctx.Opts.Features}, ctx.Rng())
}

func (logisticFamily) Encode(sc pairs.Scorer) ([]byte, error) {
	lg, ok := sc.(*ml.Logistic)
	if !ok {
		return nil, fmt.Errorf("model: logistic artifact holds a %T, want *ml.Logistic", sc)
	}
	return lg.MarshalBinary()
}

func (logisticFamily) Decode(data []byte) (pairs.Scorer, error) {
	return ml.UnmarshalLogistic(data)
}
