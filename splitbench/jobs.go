package main

import (
	"encoding/json"
	"math/rand"
	"slices"

	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The serve-mix job list. Every spec of the mix space — five designs, six
// configurations, attack and proximity — appears exactly twice: a
// first-seen occurrence that trains, and one later repeat of the same spec
// that the server's model store answers, so that only scoring and the
// result document run. About half the jobs are therefore repeats in every
// run, and every run does the same work whatever the seed; the seed only
// orders it. One sweep, run as two shards and then merged, sits at a
// seeded position in the middle half of the list.

// mixLayer is the split layer of every serve-mix job. At layer 6 one attack
// result document is about 240 MB of JSON.
const mixLayer = 8

var mixDesigns = []string{"sb1", "sb5", "sb10", "sb12", "sb18"}

// mixConfigs are the configurations of the mix: one-level presets, a
// two-level variant, and the MLP learner. All use the neighbourhood
// restriction, which keeps result documents at a few MB; ML-9, whose lists
// are several times larger, runs in the sweep, whose results carry no lists.
func mixConfigs() []serve.ConfigSpec {
	yes := true
	return []serve.ConfigSpec{
		{Preset: "Imp-11"},
		{Preset: "Imp-9"},
		{Preset: "Imp-7"},
		{Preset: "Imp-11Y"},
		{Preset: "Imp-11", TwoLevel: &yes},
		{Preset: "Imp-11", Learner: model.FamilyMLP},
	}
}

// sweepPreset is the configuration of the sharded sweep; no attack job of
// the mix uses it, so the sweep trains its own models.
const sweepPreset = "ML-9"

// jobItem is one entry of the job list: a job, or the sharded sweep.
type jobItem struct {
	spec  serve.JobSpec
	key   string // canonical JSON of spec: equal keys are repeats
	first bool   // the spec's first occurrence in the list
	sweep bool   // the sharded sweep: two shard jobs, then the merge
}

// specKey is the canonical form of a job spec.
func specKey(spec serve.JobSpec) string {
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(err) // a JobSpec always encodes
	}
	return string(raw)
}

// mixSpace returns every distinct job spec of the mix, in canonical order.
// Every spec carries the suite seed, whatever the run seed.
func mixSpace() []serve.JobSpec {
	var space []serve.JobSpec
	for _, d := range mixDesigns {
		for _, cs := range mixConfigs() {
			for _, kind := range []serve.JobKind{serve.KindAttack, serve.KindProximity} {
				s, c := int64(suiteSeed), cs
				space = append(space, serve.JobSpec{Kind: kind, Design: d, Layer: mixLayer, Seed: &s, Config: &c})
			}
		}
	}
	return space
}

// sweepSpec is the sharded sweep's spec; shard 0 is the merge.
func sweepSpec(shard, of int) serve.JobSpec {
	seed := int64(suiteSeed)
	return serve.JobSpec{Kind: serve.KindSweep, Layer: mixLayer, Seed: &seed,
		Configs: []serve.ConfigSpec{{Preset: sweepPreset}}, Shard: shard, Of: of}
}

// buildJobs returns the seeded job list.
func buildJobs(seed int64) []jobItem {
	r := rand.New(rand.NewSource(rng.Mix(seed, streamJobs)))
	space := mixSpace()
	r.Shuffle(len(space), func(i, j int) { space[i], space[j] = space[j], space[i] })
	items := make([]jobItem, 0, 2*len(space)+1)
	var pending []int // first-seen specs whose repeat is still to come
	next := 0
	for next < len(space) || len(pending) > 0 {
		if next < len(space) && (len(pending) == 0 || r.Intn(2) == 0) {
			items = append(items, jobItem{spec: space[next], key: specKey(space[next]), first: true})
			pending = append(pending, next)
			next++
			continue
		}
		k := r.Intn(len(pending))
		i := pending[k]
		pending = slices.Delete(pending, k, k+1)
		items = append(items, jobItem{spec: space[i], key: specKey(space[i])})
	}
	pos := len(items)/4 + r.Intn(len(items)/2)
	sw := sweepSpec(0, 0)
	return slices.Insert(items, pos, jobItem{spec: sw, key: specKey(sw), first: true, sweep: true})
}
