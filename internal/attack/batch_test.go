package attack

// Batch/scalar equivalence: the batched flat-arena scoring path must be a
// pure performance change. Every test here compares Config.ScalarScoring
// (the per-pair Bagging.Prob oracle) against the default batched path and
// requires bit-identical Evaluations.

import (
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/pairs"
)

// TestBatchScoringMatchesScalar is the tentpole equivalence guarantee:
// full leave-one-out runs through the batch path are byte-identical to the
// scalar oracle — candidate lists, truth probabilities, pair counts — for
// plain, neighborhood, two-level, and Y configurations, at any worker
// count.
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
		scalar := tc.cfg
		scalar.Seed = 11
		scalar.Workers = 1
		scalar.ScalarScoring = true
		want, err := runLOO(scalar, challenges(t, tc.layer))
		if err != nil {
			t.Fatalf("%s scalar: %v", tc.cfg.Name, err)
		}
		for _, ev := range want.Evals {
			if ev.Batches != 0 || ev.BatchRows != 0 {
				t.Fatalf("%s: scalar path reported %d batches", tc.cfg.Name, ev.Batches)
			}
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
				if a.PairsScored != b.PairsScored {
					t.Fatalf("%s: target %d scored %d pairs, scalar %d",
						label, i, b.PairsScored, a.PairsScored)
				}
				if b.Batches == 0 {
					t.Fatalf("%s: target %d never used the batch path", label, i)
				}
				if tc.cfg.TwoLevel {
					// Level-2 batches re-score only the level-1 survivors.
					if b.BatchRows <= b.PairsScored {
						t.Fatalf("%s: target %d two-level batch rows %d not above pair count %d",
							label, i, b.BatchRows, b.PairsScored)
					}
				} else if b.BatchRows != b.PairsScored {
					t.Fatalf("%s: target %d batch rows %d != pairs scored %d",
						label, i, b.BatchRows, b.PairsScored)
				}
			}
		}
	}
}

// TestBatchProximityMatchesScalar extends the equivalence to the proximity
// attack: its validation stage scores held-out v-pins through scoreSubset
// and must be unaffected by the scoring path.
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
	sc := cfg
	sc.ScalarScoring = true
	scalar, err := RunProximityOnInstances(sc, insts, prior)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		// Durations are measurements, not results; compare everything else.
		if batch[i].Design != scalar[i].Design || batch[i].Success != scalar[i].Success ||
			batch[i].FixedSuccess != scalar[i].FixedSuccess || batch[i].BestFrac != scalar[i].BestFrac {
			t.Fatalf("PA outcome %d differs: batch %+v vs scalar %+v", i, batch[i], scalar[i])
		}
	}
}

// TestScalarFamilyFallsBackToScalar: the logistic family trains a plain
// Scorer with no ProbBatch; the engine must quietly fall back to per-pair
// Prob.
func TestScalarFamilyFallsBackToScalar(t *testing.T) {
	chs := challenges(t, 8)
	cfg := WithFamily(Imp9(), model.FamilyLogistic)
	cfg.Name = "Imp-9-logistic-fallback"
	cfg.Seed = 8
	ev, _, err := runFold(cfg, chs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Batches != 0 || ev.BatchRows != 0 {
		t.Fatalf("scalar-family run reported %d batches / %d rows; expected the scalar fallback",
			ev.Batches, ev.BatchRows)
	}
	if ev.PairsScored == 0 {
		t.Fatal("fallback path scored nothing")
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
	if ev.Batches == 0 || ev.BatchRows != ev.PairsScored {
		t.Fatalf("batch counters %d/%d for %d pairs; MLP batch path not engaged",
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
	if ev.Batches == 0 || ev.BatchRows != ev.PairsScored {
		t.Fatalf("batch counters %d/%d for %d pairs; batch path not engaged",
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
		train := others(insts, 0)
		radius := NeighborRadiusNorm(train, cfg.NeighborQuantile)
		art, _, err := model.Train(cfg.trainSpec(train, 0, radius, nil))
		if err != nil {
			t.Fatal(err)
		}
		sc := art.Scorer()
		backend := pairs.ResolveBackend(sc, false)
		if !pairs.Batched(backend) {
			t.Fatalf("%s: trained model is not batchable", cfg.Name)
		}
		inst := insts[0]
		filter := newPairFilter(inst, cfg, radius)
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
