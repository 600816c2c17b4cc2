package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// execute runs one job end to end. Cancellation is checked at every stage
// boundary; within a stage the engine runs to completion (the worker slot
// is freed anyway — see Server.runOne). A "job.<id>" progress tracker
// counts the job's coarse stages for status polls and /progress.
func execute(ctx context.Context, s *Server, job *Job) (*Result, error) {
	spec := job.Spec
	start := time.Now()
	prog := s.o.NewProgress("job."+job.ID, int64(stages(spec)))
	defer prog.Finish()

	s.setStage(job, "instances")
	insts, err := s.instances(spec.Tier, spec.Scale, *spec.Seed, spec.Layer)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := &Result{ID: job.ID, Kind: spec.Kind, Spec: spec}
	switch spec.Kind {
	case KindTrain:
		res.Train, err = s.runTrain(job, spec, insts, prog)
	case KindAttack, KindProximity:
		res.Attack, err = s.runAttack(ctx, job, spec, insts, prog)
	case KindSweep:
		res.Sweep, err = s.runSweep(ctx, job, spec, insts, prog)
	default:
		err = fmt.Errorf("serve: unknown kind %q", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	res.ElapsedNS = int64(time.Since(start))
	return res, nil
}

// stages is the coarse step count of the job's progress tracker.
func stages(spec JobSpec) int {
	switch spec.Kind {
	case KindProximity:
		return 3 // instances, attack, proximity
	case KindSweep:
		return 1 + len(spec.Configs)
	default:
		return 2 // instances, train or attack
	}
}

// engineCfg wires a resolved configuration to the server's shared
// resources: the job's seed, the per-job engine worker bound, the obs
// context, and the coalescing artifact store.
func (s *Server) engineCfg(cfg attack.Config, spec JobSpec) attack.Config {
	cfg.Seed = *spec.Seed
	cfg.Workers = s.opts.Workers
	cfg.Obs = s.o
	cfg.Models = s.store
	return cfg
}

// targetIndex resolves the held-out design's instance index.
func targetIndex(insts []*attack.Instance, design string) (int, error) {
	for i, inst := range insts {
		if inst.Ch.Design.Name == design {
			return i, nil
		}
	}
	return -1, fmt.Errorf("serve: design %q not in generated suite", design)
}

// runTrain trains (or fetches from the shared store) the leave-one-out
// artifact for the held-out design and persists it under the state dir.
func (s *Server) runTrain(job *Job, spec JobSpec, insts []*attack.Instance,
	prog *obs.Progress) (*TrainResult, error) {

	cfg, err := spec.Config.resolve()
	if err != nil {
		return nil, err
	}
	cfg = s.engineCfg(cfg, spec)
	target, err := targetIndex(insts, spec.Design)
	if err != nil {
		return nil, err
	}
	s.setStage(job, "train")
	aspec, _, err := attack.TrainSpec(cfg, insts, target)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	art, stats, err := s.store.GetOrTrain(aspec)
	if err != nil {
		return nil, err
	}
	res := &TrainResult{
		SpecHash:      art.Meta.SpecHash,
		Level:         art.Meta.Level,
		Trees:         art.Meta.Trees,
		Samples:       art.Meta.Samples,
		Level2Trees:   art.Meta.Level2Trees,
		Level2Samples: art.Meta.Level2Samples,
		Cached:        stats.Sampling == 0 && stats.Level1 == 0 && stats.Level2 == 0,
		TrainNS:       int64(time.Since(t0)),
	}
	if s.opts.StateDir != "" {
		dir := filepath.Join(s.opts.StateDir, "artifacts")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: artifacts dir: %w", err)
		}
		path := filepath.Join(dir, art.Meta.SpecHash+".model")
		if _, err := os.Stat(path); err != nil {
			if err := art.WriteFile(path); err != nil {
				return nil, fmt.Errorf("serve: persist artifact: %w", err)
			}
		}
		res.Artifact = path
	}
	prog.Add(1)
	return res, nil
}

// runAttack runs the single-target attack (plus the proximity stage for
// proximity jobs).
func (s *Server) runAttack(ctx context.Context, job *Job, spec JobSpec,
	insts []*attack.Instance, prog *obs.Progress) (*AttackResult, error) {

	cfg, err := spec.Config.resolve()
	if err != nil {
		return nil, err
	}
	cfg = s.engineCfg(cfg, spec)
	target, err := targetIndex(insts, spec.Design)
	if err != nil {
		return nil, err
	}
	s.setStage(job, "attack")
	ev, radiusNorm, err := attack.RunTargetInstances(cfg, insts, target)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	res := attackResult(cfg, spec.Layer, ev, radiusNorm)
	if spec.Kind != KindProximity {
		return res, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.setStage(job, "proximity")
	out, err := attack.ProximityTargetInstances(cfg, insts, target, ev, radiusNorm)
	if err != nil {
		return nil, err
	}
	prog.Add(1)
	res.Proximity = &ProximityResult{
		Success:      out.Success,
		FixedSuccess: out.FixedSuccess,
		BestFrac:     out.BestFrac,
		ValidationNS: int64(out.ValidationDur),
	}
	return res, nil
}

// runSweep runs the leave-one-out sweep of every configuration through
// sweep.Run, checking for cancellation before every fold. A full sweep (no
// shard/of) computes — or, when the server has a checkpoint, loads — every
// fold and returns per-configuration aggregates; a sharded sweep computes
// only the work units its partition owns into the checkpoint and returns
// unit statistics, leaving aggregation to a later full sweep job.
func (s *Server) runSweep(ctx context.Context, job *Job, spec JobSpec,
	insts []*attack.Instance, prog *obs.Progress) (*SweepResult, error) {

	res := &SweepResult{Layer: spec.Layer, Shard: spec.Shard, Of: spec.Of}
	prov := sweep.Provenance{Tier: spec.Tier, Scale: spec.Scale, Seed: *spec.Seed}
	sh := sweep.Shard{Index: spec.Shard, Count: spec.Of}
	sharded := spec.Of > 0
	var stats UnitStats
	for i, cs := range spec.Configs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cfg, err := cs.resolve()
		if err != nil {
			return nil, err
		}
		cfg = s.engineCfg(cfg, spec)
		s.setStage(job, fmt.Sprintf("sweep %d/%d: %s", i+1, len(spec.Configs), cfg.Name))
		r, st, err := sweep.Run(ctx, s.ck, prov, sh, cfg, 0, insts)
		if err != nil {
			return nil, err
		}
		stats.Add(st)
		if !sharded {
			res.Configs = append(res.Configs, sweepConfigResult(cfg, r))
		}
		prog.Add(1)
	}
	if sharded {
		res.Units = &stats
	}
	return res, nil
}

// sweepConfigResult aggregates one configuration's full leave-one-out
// sweep: per-design digests and the accuracy-vs-LoC curve.
func sweepConfigResult(cfg attack.Config, r *attack.Result) SweepConfigResult {
	cr := SweepConfigResult{
		Config:      cfg.Name,
		MeanTrainNS: int64(r.MeanTrainDur()),
		MeanTestNS:  int64(r.MeanTestDur()),
	}
	for _, ev := range r.Evals {
		cr.Designs = append(cr.Designs, DesignSummary{
			Design:      ev.Design,
			VPins:       ev.N,
			MaxAccuracy: ev.MaxAccuracy(),
			EvalDigest:  ev.Digest(),
		})
	}
	for _, pt := range attack.Curve(r.Evals, attack.CurveFractions()) {
		cr.Curve = append(cr.Curve, CurvePoint{LoCFrac: pt.LoCFrac, Accuracy: pt.Accuracy})
	}
	return cr
}
