package attack

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ml"
	"repro/internal/model"
)

// TestArtifactScoringBitIdentity is the tentpole acceptance check: a model
// trained by the train stage, serialized, and reloaded from its binary form
// produces a bit-identical evaluation to the in-process path — at a
// different worker count, too.
func TestArtifactScoringBitIdentity(t *testing.T) {
	chs := challenges(t, 8)
	for _, mk := range []func() Config{Imp11, func() Config { return WithTwoLevel(Imp11()) }} {
		cfg := mk()
		cfg.Seed = 42
		cfg.Workers = 1
		insts := NewInstancesWorkers(chs, 0)

		ev, radius, err := RunTargetInstances(cfg, insts, 0)
		if err != nil {
			t.Fatal(err)
		}

		spec, specRadius, err := TrainSpec(cfg, insts, 0)
		if err != nil {
			t.Fatal(err)
		}
		if specRadius != radius {
			t.Fatalf("%s: TrainSpec radius %v, run radius %v", cfg.Name, specRadius, radius)
		}
		art, _, err := model.Train(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := art.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		back, err := model.UnmarshalArtifact(blob)
		if err != nil {
			t.Fatal(err)
		}

		c2 := cfg
		c2.Workers = runtime.GOMAXPROCS(0)
		ev2, radius2, err := RunTargetArtifact(c2, insts, 0, back)
		if err != nil {
			t.Fatal(err)
		}
		if radius2 != radius {
			t.Fatalf("%s: artifact run radius %v, want %v", cfg.Name, radius2, radius)
		}
		sameEval(t, cfg.Name+": artifact vs in-process", ev, ev2)
	}
}

// TestRunWithStoreBitIdentity: wiring a Store into a run changes nothing
// about its results — cold (every fold trains) or warm (every fold hits).
func TestRunWithStoreBitIdentity(t *testing.T) {
	chs := challenges(t, 8)
	cfg := Imp9()
	cfg.Seed = 42
	base, err := runLOO(cfg, chs)
	if err != nil {
		t.Fatal(err)
	}

	cached := cfg
	cached.Models = model.NewStore(0, "")
	cold, err := runLOO(cached, chs)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "store cold vs no store", base, cold)

	warm, err := runLOO(cached, chs)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "store warm vs no store", base, warm)
	if got, want := cached.Models.Len(), len(chs); got != want {
		t.Fatalf("store holds %d artifacts, want one per fold (%d)", got, want)
	}
}

// TestArtifactSpecMismatchRejected: an artifact trained for one fold (or
// seed) must be refused by a run whose spec differs, instead of silently
// producing wrong-model scores.
func TestArtifactSpecMismatchRejected(t *testing.T) {
	chs := challenges(t, 8)
	cfg := Imp11()
	cfg.Seed = 42
	insts := NewInstancesWorkers(chs, 0)
	spec, _, err := TrainSpec(cfg, insts, 0)
	if err != nil {
		t.Fatal(err)
	}
	art, _, err := model.Train(spec)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := RunTargetArtifact(cfg, insts, 1, art); err == nil {
		t.Fatal("artifact for fold 0 accepted by fold 1")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("mismatch error %q does not explain itself", err)
	}

	wrongSeed := cfg
	wrongSeed.Seed = 43
	if _, _, err := RunTargetArtifact(wrongSeed, insts, 0, art); err == nil {
		t.Fatal("artifact for seed 42 accepted by a seed-43 run")
	}
}

// wideDataset is a separable dataset whose label lives in feature column
// 40, far past any configuration's row width.
func wideDataset() *ml.Dataset {
	r := rand.New(rand.NewSource(7))
	ds := &ml.Dataset{}
	for i := 0; i < 200; i++ {
		x := make([]float64, 41)
		x[40] = r.Float64()
		ds.Add(x, x[40] > 0.5)
	}
	return ds
}

// forgeArtifact wraps a level-1 payload in a well-formed artifact
// container carrying meta, checksum included.
func forgeArtifact(t *testing.T, meta model.Meta, l1 []byte) *model.Artifact {
	t.Helper()
	metaBlob, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	buf := binary.LittleEndian.AppendUint16([]byte("SPLITMDL"), model.ArtifactCodecVersion)
	for _, blob := range [][]byte{metaBlob, l1, nil} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	art, err := model.UnmarshalArtifact(buf)
	if err != nil {
		t.Fatalf("forged artifact does not decode: %v", err)
	}
	return art
}

// TestArtifactWiderThanSpecRejected forges bagging and MLP artifacts that
// carry the run's spec hash but whose model reads feature column 40: the
// codec accepts them, and the attack must refuse them before scoring.
func TestArtifactWiderThanSpecRejected(t *testing.T) {
	insts := NewInstancesWorkers(challenges(t, 8), 0)
	bag, err := ml.TrainBagging(wideDataset(), 2, ml.TreeOptions{Features: []int{40}}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	nn, err := ml.TrainMLP(wideDataset(), ml.MLPOptions{Features: []int{40}, Epochs: 1}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	mlp := DLMLP()
	mlp.MLPEpochs = 1
	for _, tc := range []struct {
		cfg     Config
		payload interface{ MarshalBinary() ([]byte, error) }
	}{
		{Imp11(), bag.Compile()},
		{mlp, nn},
	} {
		cfg := tc.cfg
		cfg.Seed = 42
		spec, _, err := TrainSpec(cfg, insts, 0)
		if err != nil {
			t.Fatal(err)
		}
		genuine, _, err := model.Train(spec)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := tc.payload.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		forged := forgeArtifact(t, genuine.Meta, blob)
		if _, _, err := RunTargetArtifact(cfg, insts, 0, forged); err == nil {
			t.Fatalf("%s: artifact reading column 40 accepted", cfg.Name)
		} else if !strings.Contains(err.Error(), "column 40") {
			t.Fatalf("%s: width error %q does not name the column", cfg.Name, err)
		}
		if _, _, err := RunTargetArtifact(cfg, insts, 0, genuine); err != nil {
			t.Fatalf("%s: genuine artifact refused: %v", cfg.Name, err)
		}
	}
}
