// Package sweep decomposes leave-one-out experiment sweeps into enumerable
// work units with content-addressed keys, so a sweep can be partitioned
// across processes ("-shard i/n"), checkpointed per unit, resumed after a
// kill, and merged deterministically.
//
// The unit of work is one (design-fold × config × layer × noise) attack run:
// train on every design but the fold's, score the fold's. Fold runs are
// independent — attack.RunFoldInstances is bit-identical to the matching
// slice of a full attack.RunInstances — so any partition of the unit set
// across shards, in any order, at any worker count, recombines into exactly
// the single-process result. Unit keys hash every coordinate that selects
// the unit's bits (suite provenance, config options hash, layer, noise,
// fold), which makes the checkpoint content-addressed: a shard resumes by
// skipping keys that already have valid unit files, and a merge is just
// loading every key of the plan.
//
// A Suite is the generated suite those units run against, prepared once:
// its designs, each (layer, noise) cut of them, and the run context every
// run shares. Run is the one checkpointed, sharded leave-one-out on it.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/layout"
)

// Provenance pins the benchmark suite a unit was computed against. Two
// units from different provenances must never merge: their designs (and
// therefore every evaluation bit) differ.
type Provenance struct {
	// Tier is the suite tier ("standard" or "industrial").
	Tier string `json:"tier"`
	// Scale is the suite scale factor.
	Scale float64 `json:"scale"`
	// Seed roots suite generation and all attack randomness.
	Seed int64 `json:"seed"`
}

// Unit is one checkpointable work unit: a single leave-one-out fold of one
// configuration at one (layer, noise) coordinate. All fields participate in
// Key, and all are embedded in the unit's checkpoint file so a merge can
// refuse partials from a different sweep.
type Unit struct {
	Prov Provenance `json:"prov"`
	// Config is the configuration's display name (part of the Evaluation's
	// digest, hence part of the unit's identity).
	Config string `json:"config"`
	// Spec is the configuration's content hash (attack.Config.OptionsHash).
	// Every registered learner family hashes canonically, so every
	// configuration is representable as a unit.
	Spec string `json:"spec"`
	// Layer is the split (via) layer.
	Layer int `json:"layer"`
	// Noise is the Gaussian y-noise standard deviation applied to the
	// challenges (fraction of die height; 0 = clean).
	Noise float64 `json:"noise"`
	// Fold is the held-out design's index in the suite.
	Fold int `json:"fold"`
	// Design is the held-out design's name (redundant with Fold given the
	// provenance, kept for self-describing checkpoint files).
	Design string `json:"design"`
}

// NewUnit builds the work unit of leave-one-out fold `fold` (held-out
// design `design`) of cfg at a (layer, noise) coordinate of the suite prov
// pins; an empty tier is the standard tier. It is the one place a
// configuration becomes unit coordinates, so the experiment suite, its
// shard planner, and the job server mint the same key for the same fold and
// can split one sweep through a shared checkpoint directory.
func NewUnit(prov Provenance, cfg attack.Config, layer int, noise float64, fold int, design string) Unit {
	if prov.Tier == "" {
		prov.Tier = layout.TierStandard
	}
	return Unit{
		Prov:   prov,
		Config: cfg.Name,
		Spec:   cfg.OptionsHash(),
		Layer:  layer,
		Noise:  noise,
		Fold:   fold,
		Design: design,
	}
}

// Key is the unit's content address: a truncated SHA-256 over a canonical
// serialization of every field, with floats hashed by bit pattern. It names
// the unit's checkpoint file and is the value shards partition on.
func (u Unit) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep-unit/v1\n")
	fmt.Fprintf(&b, "tier=%s scale=%016x seed=%d\n",
		u.Prov.Tier, math.Float64bits(u.Prov.Scale), u.Prov.Seed)
	fmt.Fprintf(&b, "config=%s spec=%s\n", u.Config, u.Spec)
	fmt.Fprintf(&b, "layer=%d noise=%016x\n", u.Layer, math.Float64bits(u.Noise))
	fmt.Fprintf(&b, "fold=%d design=%s\n", u.Fold, u.Design)
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

// String renders the unit for logs and errors.
func (u Unit) String() string {
	s := fmt.Sprintf("%s@L%d", u.Config, u.Layer)
	if u.Noise != 0 {
		s += fmt.Sprintf("/noise%g", u.Noise)
	}
	return fmt.Sprintf("%s fold %d (%s) [tier=%s scale=%g seed=%d]",
		s, u.Fold, u.Design, u.Prov.Tier, u.Prov.Scale, u.Prov.Seed)
}

// Shard is one partition of the unit set: shard Index of Count (1-based).
// The zero value owns every unit (no sharding).
type Shard struct {
	Index int
	Count int
}

// ParseShard parses the "-shard i/n" flag form. The empty string is the
// zero shard (own everything).
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form i/n", s)
	}
	idx, err1 := strconv.Atoi(i)
	cnt, err2 := strconv.Atoi(n)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("sweep: shard %q is not of the form i/n", s)
	}
	sh := Shard{Index: idx, Count: cnt}
	if err := sh.Validate(); err != nil {
		return Shard{}, err
	}
	return sh, nil
}

// Validate rejects out-of-range shards. The zero value is valid.
func (sh Shard) Validate() error {
	if sh.Index == 0 && sh.Count == 0 {
		return nil
	}
	if sh.Count < 1 || sh.Index < 1 || sh.Index > sh.Count {
		return fmt.Errorf("sweep: shard %d/%d out of range (want 1 <= i <= n)", sh.Index, sh.Count)
	}
	return nil
}

// Enabled reports whether the shard actually partitions (Count > 1 — a
// 1/1 shard owns everything, like the zero value).
func (sh Shard) Enabled() bool { return sh.Count > 1 }

// String renders the "i/n" form ("" for the zero shard).
func (sh Shard) String() string {
	if sh.Count == 0 {
		return ""
	}
	return fmt.Sprintf("%d/%d", sh.Index, sh.Count)
}

// Owns reports whether this shard is responsible for the unit with the
// given key. Ownership is content-addressed — a hash of the key modulo the
// shard count — so it is stable under any re-enumeration or reordering of
// the plan, and every unit belongs to exactly one shard.
func (sh Shard) Owns(key string) bool {
	if !sh.Enabled() {
		return true
	}
	h, err := strconv.ParseUint(key[:min(16, len(key))], 16, 64)
	if err != nil {
		// Keys are always hex; a malformed one lands on shard 1 so it is
		// still owned exactly once.
		h = 0
	}
	return int(h%uint64(sh.Count)) == sh.Index-1
}
