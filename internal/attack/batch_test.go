package attack

// Batch/row equivalence: the batched flat-arena scoring path must be a pure
// performance change. The oracle is the same trained model behind
// probOnly, which the backend resolver can only score row by row through
// Prob — a two-level model through TwoLevel.Prob's gate — and every test
// here requires bit-identical Evaluations.

import (
	"fmt"
	"testing"

	"repro/internal/features"
	"repro/internal/ml"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/pairs"
)

// probOnly hides a model's ProbBatch (and, for a two-level model, its
// levels), so the resolver adapts the whole model to score one row at a
// time through Prob: the oracle the batched path is checked against.
type probOnly struct{ Scorer }

// probOnlyFamily is the bagging family with every model it trains behind
// probOnly. A configuration naming it trains the same trees, and scores
// them row by row, also in stages that train their own models, such as the
// proximity attack's validation.
type probOnlyFamily struct{ model.Family }

const probOnlyFamilyName = "bagging-prob-only"

func (probOnlyFamily) Name() string { return probOnlyFamilyName }

func (f probOnlyFamily) Train(ctx model.TrainContext, ds *ml.Dataset) (pairs.Scorer, error) {
	sc, err := f.Family.Train(ctx, ds)
	if err != nil {
		return nil, err
	}
	return probOnly{sc}, nil
}

func init() {
	bagging, err := model.FamilyByName(model.FamilyBagging)
	if err != nil {
		panic(err)
	}
	model.Register(probOnlyFamily{bagging})
}

// runOracleLOO is cfg's leave-one-out through RunFolds with every fold's
// trained model behind probOnly.
func runOracleLOO(cfg Config, insts []*Instance) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunFolds(cfg, insts, func(fold, _ int, _ *obs.Span) (*Evaluation, float64, error) {
		spec, radius, err := TrainSpec(cfg, insts, fold)
		if err != nil {
			return nil, 0, err
		}
		art, _, err := model.Train(spec)
		if err != nil {
			return nil, 0, err
		}
		return scoreSubset(probOnly{art.Scorer()}, insts[fold], cfg, radius, nil), radius, nil
	})
}

// TestBatchScoringMatchesScalar is the tentpole equivalence guarantee:
// full leave-one-out runs through the batch path are byte-identical to the
// row-by-row oracle — candidate lists, truth probabilities, pair counts,
// digests — for plain, neighborhood, two-level, and Y configurations, at
// any worker count.
func TestBatchScoringMatchesScalar(t *testing.T) {
	cases := []struct {
		cfg   Config
		layer int
	}{
		{ML9(), 6},
		{Imp11(), 6},
		{WithTwoLevel(Imp11()), 8},
		{WithY(Imp9()), 8},
	}
	for _, tc := range cases {
		insts := NewInstancesWorkers(challenges(t, tc.layer), 0)
		oracle := tc.cfg
		oracle.Seed = 11
		oracle.Workers = 1
		want, err := runOracleLOO(oracle, insts)
		if err != nil {
			t.Fatalf("%s oracle: %v", tc.cfg.Name, err)
		}
		for _, w := range []int{1, 3} {
			batch := tc.cfg
			batch.Seed = 11
			batch.Workers = w
			got, err := runLOO(batch, challenges(t, tc.layer))
			if err != nil {
				t.Fatalf("%s batch workers=%d: %v", tc.cfg.Name, w, err)
			}
			label := fmt.Sprintf("%s layer %d workers %d", tc.cfg.Name, tc.layer, w)
			sameResult(t, label, want, got)
			for i := range got.Evals {
				a, b := want.Evals[i], got.Evals[i]
				if a.PairsScored != b.PairsScored || a.Digest() != b.Digest() {
					t.Fatalf("%s: target %d scored %d pairs to digest %.12s, oracle %d to %.12s",
						label, i, b.PairsScored, b.Digest(), a.PairsScored, a.Digest())
				}
				if b.Batches == 0 {
					t.Fatalf("%s: target %d never used the batch path", label, i)
				}
				// Each admitted pair of the fully scored design reaches the
				// kernel once, so level 1 scores exactly PairsScored/2 rows;
				// level 2 adds one row per level-1 survivor.
				want := b.PairsScored / 2
				if tc.cfg.TwoLevel {
					want += level2Rows(t, batch, insts, i)
				}
				if b.PairsScored%2 != 0 || b.BatchRows != want {
					t.Fatalf("%s: target %d batch rows %d for %d pairs, want %d",
						label, i, b.BatchRows, b.PairsScored, want)
				}
			}
		}
	}
}

// level2Rows counts the level-2 rows a shared scoring pass over fold's
// whole target makes under cfg's two-level model: one per admitted
// unordered pair whose level-1 probability passes the 0.5 gate, judged
// pair by pair through the scalar Prob.
func level2Rows(t *testing.T, cfg Config, insts []*Instance, fold int) int64 {
	t.Helper()
	spec, radius, err := TrainSpec(cfg, insts, fold)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := model.Train(spec)
	if err != nil {
		t.Fatal(err)
	}
	tl, ok := art.Scorer().(*pairs.TwoLevel)
	if !ok {
		t.Fatalf("%s: model is %T, not a two-level composition", cfg.Name, art.Scorer())
	}
	inst := insts[fold]
	cfg = cfg.withDefaults()
	row := make([]float64, features.Width(cfg.Features))
	var rows int64
	for a := 0; a < inst.N(); a++ {
		cfg.Filter(inst, radius).Enumerate(a, func(b int32) {
			if int(b) > a {
				inst.Ex.Pair(a, int(b), row)
				if tl.L1.Prob(row) >= 0.5 {
					rows++
				}
			}
		})
	}
	return rows
}

// TestBatchProximityMatchesScalar extends the equivalence to the proximity
// attack: its validation stage trains its own models and scores held-out
// v-pins through scoreSubset, and must be unaffected by the scoring path.
// The prob-only family reaches those models.
func TestBatchProximityMatchesScalar(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 8), 0)
	cfg := Imp9()
	cfg.Seed = 42
	cfg.Workers = 1
	prior, err := RunInstances(cfg, insts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RunProximityOnInstances(cfg, insts, prior)
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := RunProximityOnInstances(WithFamily(cfg, probOnlyFamilyName), insts, prior)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		// Durations are measurements, not results; compare everything else.
		if batch[i].Design != scalar[i].Design || batch[i].Success != scalar[i].Success ||
			batch[i].FixedSuccess != scalar[i].FixedSuccess || batch[i].BestFrac != scalar[i].BestFrac {
			t.Fatalf("PA outcome %d differs: batch %+v vs row oracle %+v", i, batch[i], scalar[i])
		}
	}
}

// TestProbOnlyFamilyRowAdapted: the logistic family trains a plain Scorer
// with no ProbBatch; the backend adapts it to score the gathered rows one
// by one, and the counters read the rows it scored, once per admitted
// pair, as for every batch-capable model.
func TestProbOnlyFamilyRowAdapted(t *testing.T) {
	chs := challenges(t, 8)
	cfg := WithFamily(Imp9(), model.FamilyLogistic)
	cfg.Name = "Imp-9-logistic-adapted"
	cfg.Seed = 8
	ev, _, err := runFold(cfg, chs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.PairsScored == 0 || ev.Batches == 0 || 2*ev.BatchRows != ev.PairsScored {
		t.Fatalf("logistic run counted %d batches / %d rows for %d pairs; want every admitted pair scored once",
			ev.Batches, ev.BatchRows, ev.PairsScored)
	}
}

// TestMLPFamilyUsesBatchPath pins that the MLP family rides the batched
// flat-arena engine exactly like the tree ensemble — a regression here
// silently reverts every DL-perspective run to scalar speed.
func TestMLPFamilyUsesBatchPath(t *testing.T) {
	chs := challenges(t, 8)
	cfg := DLMLP()
	cfg.Seed = 8
	cfg.MLPEpochs = 3
	ev, _, err := runFold(cfg, chs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Batches == 0 || 2*ev.BatchRows != ev.PairsScored {
		t.Fatalf("batch counters %d/%d for %d pairs; MLP batch path not engaged once per pair",
			ev.Batches, ev.BatchRows, ev.PairsScored)
	}
}

// TestBatchDefaultPathIsUsed pins that the standard tree configurations do
// go through the batch engine (a regression here would silently revert the
// hot path to scalar speed).
func TestBatchDefaultPathIsUsed(t *testing.T) {
	chs := challenges(t, 8)
	cfg := ML9()
	cfg.Seed = 8
	ev, _, err := runFold(cfg, chs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Batches == 0 || 2*ev.BatchRows != ev.PairsScored {
		t.Fatalf("batch counters %d/%d for %d pairs; batch path not engaged once per pair",
			ev.Batches, ev.BatchRows, ev.PairsScored)
	}
}

// TestBatchGatherScoreAllocFree guards the zero-steady-state-allocation
// property of the scoring inner loop: once a worker's buffers have grown to
// the largest candidate set seen, gather+score must not allocate.
func TestBatchGatherScoreAllocFree(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 6), 0)
	for _, base := range []Config{Imp11(), WithTwoLevel(Imp11())} {
		cfg := base.withDefaults()
		cfg.Seed = 3
		spec, radius := cfg.foldSpec(insts, 0, nil)
		art, _, err := model.Train(spec)
		if err != nil {
			t.Fatal(err)
		}
		sc := art.Scorer()
		backend := pairs.ResolveBackend(sc, false)
		inst := insts[0]
		filter := cfg.Filter(inst, radius)
		var g pairs.Gatherer
		warm := inst.N()
		if warm > 64 {
			warm = 64
		}
		for a := 0; a < warm; a++ {
			g.Gather(filter, a)
			g.Score(backend)
		}
		allocs := testing.AllocsPerRun(50, func() {
			for a := 0; a < warm; a++ {
				g.Gather(filter, a)
				g.Score(backend)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: gather+score allocated %.1f times per run after warmup", cfg.Name, allocs)
		}
	}
}
