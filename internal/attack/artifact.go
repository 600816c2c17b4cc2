package attack

import (
	"fmt"

	"repro/internal/features"
	"repro/internal/model"
	"repro/internal/obs"
)

// TrainSpec returns the model spec the leave-one-out run for the held-out
// design at index target would train, plus the neighborhood radius it
// derives from the training designs. `splitattack train` feeds the spec to
// model.Train and ships the artifact; a later RunTargetArtifact with the
// same configuration, instances, and seed accepts it.
func TrainSpec(cfg Config, insts []*Instance, target int) (model.Spec, float64, error) {
	cfg, err := prepareFold(cfg, insts, target)
	if err != nil {
		return model.Spec{}, 0, err
	}
	spec, radiusNorm := cfg.foldSpec(insts, target, nil)
	return spec, radiusNorm, nil
}

// RunTargetArtifact scores the held-out design at index target with a
// pre-trained artifact instead of training in-process. The artifact's spec
// hash must match the spec this run would train — same designs,
// configuration, seed, and fold — which pins the result to be bit-identical
// to RunTargetInstances' evaluation (training durations aside, since no
// training happens here).
func RunTargetArtifact(cfg Config, insts []*Instance, target int, art *model.Artifact) (*Evaluation, float64, error) {
	cfg, err := prepareFold(cfg, insts, target)
	if err != nil {
		return nil, 0, err
	}
	spec, radiusNorm := cfg.foldSpec(insts, target, nil)
	if h := spec.Hash(); h != art.Meta.SpecHash {
		return nil, 0, fmt.Errorf("attack: artifact %.12s (config %s, seed %d) does not match this run's spec %.12s (config %s, target %s, seed %d): train and attack must agree on designs, configuration, and seed",
			art.Meta.SpecHash, art.Meta.Config, art.Meta.Seed,
			h, cfg.Name, insts[target].Ch.Design.Name, cfg.Seed)
	}
	if err := art.CheckWidth(features.Width(cfg.Features)); err != nil {
		return nil, 0, fmt.Errorf("attack: %w", err)
	}
	sp := cfg.Obs.Begin("target", obs.F("design", insts[target].Ch.Design.Name),
		obs.F("artifact", art.Meta.SpecHash))
	ev := cfg.scoreFold(art.Scorer(), insts[target], radiusNorm, sp)
	sp.End()
	return ev, radiusNorm, nil
}
