package model

import (
	"container/list"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/features"
	"repro/internal/obs"
)

// DefaultStoreCapacity bounds the in-memory artifact cache when NewStore is
// given a non-positive capacity. A full experiments sweep holds one level-1
// and one level-2 artifact per (config, layer, fold); 256 covers the
// paper's tables with room to spare at a few MB per artifact.
const DefaultStoreCapacity = 256

// Store caches trained artifacts by spec content hash: an in-memory LRU
// always, plus an optional on-disk directory so artifacts survive the
// process and can be shared between runs. A nil *Store is valid and simply
// trains every request. Lookups record hit/miss outcomes on the requesting
// spec's obs context under the "model.artifacts" cache counters (plus
// "model.artifacts.disk.hit" for loads served from the directory).
//
// Concurrent GetOrTrain calls for the same hash are coalesced: one caller
// trains, the rest wait and share the artifact, so a sweep trains each
// fold exactly once no matter how its workers race.
type Store struct {
	mu       sync.Mutex
	capacity int
	mem      map[string]*list.Element
	order    *list.List // front = most recently used
	inflight map[string]*flight
	dir      string
}

type storeEntry struct {
	hash string
	art  *Artifact
}

// flight is one in-progress training another caller may wait on.
type flight struct {
	done chan struct{}
	art  *Artifact
	err  error
}

// NewStore builds a store bounded to capacity in-memory artifacts
// (non-positive selects DefaultStoreCapacity). A non-empty dir enables the
// on-disk layer: artifacts are written as <hash>.model under dir, which is
// created if missing.
func NewStore(capacity int, dir string) *Store {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	return &Store{
		capacity: capacity,
		mem:      make(map[string]*list.Element),
		order:    list.New(),
		inflight: make(map[string]*flight),
		dir:      dir,
	}
}

// GetOrTrain returns the artifact for spec, training it only when no
// cached copy exists. The returned stats describe only the training work
// this call actually performed: a full cache hit reports zeros, and a
// two-level spec whose level-1 model was cached reports only the level-2
// stage. Results are bit-identical to Train(spec) — cached artifacts came
// from the same deterministic training streams.
func (s *Store) GetOrTrain(spec Spec) (*Artifact, TrainStats, error) {
	if s == nil {
		return Train(spec)
	}
	width := features.Width(spec.Opts.Features)
	l1Spec := spec.Level1()
	l1, l1Stats, err := s.getOrDo(spec.Obs, l1Spec.Hash(), width, func() (*Artifact, TrainStats, error) {
		return trainLevel1(l1Spec)
	})
	if err != nil || !spec.Opts.TwoLevel {
		return l1, l1Stats, err
	}
	full, l2Stats, err := s.getOrDo(spec.Obs, spec.Hash(), width, func() (*Artifact, TrainStats, error) {
		return TrainLevel2(spec, l1)
	})
	l1Stats.Level2 = l2Stats.Level2
	l1Stats.Level2Samples = l2Stats.Level2Samples
	return full, l1Stats, err
}

// getOrDo returns the artifact cached under hash, or runs train once —
// coalescing concurrent callers — and caches its result. width is the row
// width the spec scores, which a disk copy must fit.
func (s *Store) getOrDo(o *obs.Context, hash string, width int,
	train func() (*Artifact, TrainStats, error)) (*Artifact, TrainStats, error) {

	cache := o.Metrics().Cache("model.artifacts")
	s.mu.Lock()
	if el, ok := s.mem[hash]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		cache.Lookup(true)
		return el.Value.(*storeEntry).art, TrainStats{}, nil
	}
	if fl, ok := s.inflight[hash]; ok {
		s.mu.Unlock()
		<-fl.done
		if fl.err != nil {
			return nil, TrainStats{}, fl.err
		}
		// The winner's training satisfied this lookup too: a hit, and no
		// work performed by this call.
		cache.Lookup(true)
		return fl.art, TrainStats{}, nil
	}
	fl := &flight{done: make(chan struct{})}
	s.inflight[hash] = fl
	s.mu.Unlock()

	if art, ok := s.loadDisk(hash, width); ok {
		cache.Lookup(true)
		o.Metrics().Counter("model.artifacts.disk.hit").Inc()
		s.finish(hash, fl, art, nil)
		return art, TrainStats{}, nil
	}

	cache.Lookup(false)
	art, stats, err := train()
	s.finish(hash, fl, art, err)
	if err == nil {
		s.writeDisk(hash, art)
	}
	return art, stats, err
}

// finish publishes a flight's outcome and inserts successful artifacts
// into the LRU.
func (s *Store) finish(hash string, fl *flight, art *Artifact, err error) {
	s.mu.Lock()
	fl.art, fl.err = art, err
	delete(s.inflight, hash)
	if err == nil {
		el := s.order.PushFront(&storeEntry{hash: hash, art: art})
		s.mem[hash] = el
		for s.order.Len() > s.capacity {
			old := s.order.Back()
			s.order.Remove(old)
			delete(s.mem, old.Value.(*storeEntry).hash)
		}
	}
	s.mu.Unlock()
	close(fl.done)
}

// diskPath is the on-disk location of an artifact, or "" without a dir.
func (s *Store) diskPath(hash string) string {
	if s.dir == "" {
		return ""
	}
	return filepath.Join(s.dir, hash+".model")
}

// loadDisk probes the on-disk layer. A decodable artifact whose metadata
// repeats the expected spec hash and whose model fits the spec's row width
// is served; anything else (missing, corrupted, renamed, forged) falls
// through to training.
func (s *Store) loadDisk(hash string, width int) (*Artifact, bool) {
	path := s.diskPath(hash)
	if path == "" {
		return nil, false
	}
	art, err := LoadFile(path)
	if err != nil || art.Meta.SpecHash != hash || art.CheckWidth(width) != nil {
		return nil, false
	}
	return art, true
}

// writeDisk persists a freshly trained artifact, best-effort: a read-only
// or missing cache directory must not fail the training that produced the
// artifact. Every family serializes through its registered codec, so no
// artifact is exempt.
func (s *Store) writeDisk(hash string, art *Artifact) {
	path := s.diskPath(hash)
	if path == "" {
		return
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return
	}
	_ = art.WriteFile(path)
}

// Len reports the number of artifacts currently held in memory.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.order.Len()
}

// Dir returns the on-disk cache directory ("" when memory-only).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}
