package model

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/ml"
	"repro/internal/pairs"
)

// Meta is the serialized metadata of a trained artifact: enough to verify
// what the model was trained on (spec hash, designs, seed, fold) and to
// describe it (tree counts, feature names, repro version) without loading
// the arenas.
type Meta struct {
	// SpecHash is the content hash (Spec.Hash) of the training spec.
	SpecHash string `json:"spec_hash"`
	// Config is the attack configuration's display name.
	Config string `json:"config"`
	// Family is the artifact's learner-family kind tag, dispatching the
	// payload sections to the family's codec. Empty means FamilyBagging —
	// and is omitted from the JSON, so every bagging artifact's bytes are
	// identical to the pre-family format (container version 1 throughout).
	Family string `json:"family,omitempty"`
	// Level is 1 for a plain ensemble, 2 when a two-level-pruning model
	// rides along.
	Level int `json:"level"`
	// SplitLayer and Designs identify the training fold.
	SplitLayer int      `json:"split_layer"`
	Designs    []string `json:"designs"`
	// Seed and Fold pin the random streams training consumed.
	Seed int64 `json:"seed"`
	Fold int   `json:"fold"`
	// RadiusNorm is the Imp neighborhood radius used (-1 when disabled).
	RadiusNorm float64 `json:"radius_norm"`
	// Samples and Level2Samples count the training rows per level.
	Samples       int `json:"samples"`
	Level2Samples int `json:"level2_samples,omitempty"`
	// Trees and Level2Trees are the ensemble sizes per level.
	Trees       int `json:"trees"`
	Level2Trees int `json:"level2_trees,omitempty"`
	// FeatureNames are the paper names of the trained feature set, in
	// training order.
	FeatureNames []string `json:"feature_names"`
	// Version is the repro build version that trained the artifact.
	Version string `json:"version"`
}

// Artifact is a trained model ready for scoring: the level-1 scorer, the
// optional level-2 scorer, and the metadata describing their provenance.
// Artifacts are immutable and safe to share between concurrent scoring
// runs.
type Artifact struct {
	Meta Meta

	// l1 and l2 are the trained scorers; their concrete type is the
	// Meta.Family's (compiled *ml.Ensemble for bagging, *ml.MLP for mlp,
	// *ml.Logistic for logistic).
	l1, l2 pairs.Scorer
}

// Scorer returns the scoring interface the attack engine consumes: the
// two-level gate when the artifact carries a level-2 model, the level-1
// ensemble alone otherwise.
func (a *Artifact) Scorer() pairs.Scorer {
	if a.l2 != nil {
		return &pairs.TwoLevel{L1: a.l1, L2: a.l2}
	}
	return a.l1
}

// CheckWidth refuses an artifact whose model reads a feature column at or
// past width, the row width its spec scores (features.Width of the spec's
// feature set): scoring it would read other rows' features or panic. The
// codecs check an artifact's structure but cannot know the width it will
// meet, so every consumer of a stored artifact checks it against its spec.
func (a *Artifact) CheckWidth(width int) error {
	for level, sc := range []pairs.Scorer{a.l1, a.l2} {
		m, ok := sc.(interface{ Width() int })
		if ok && m.Width() > width {
			return fmt.Errorf("model: artifact %.12s: level-%d model reads feature column %d, past the spec's row width %d",
				a.Meta.SpecHash, level+1, m.Width()-1, width)
		}
	}
	return nil
}

// Ensembles returns the compiled arenas, with ok false for families that
// do not train ensembles (level2 is nil for one-level artifacts).
func (a *Artifact) Ensembles() (level1, level2 *ml.Ensemble, ok bool) {
	e1, ok1 := a.l1.(*ml.Ensemble)
	if !ok1 {
		return nil, nil, false
	}
	if a.l2 == nil {
		return e1, nil, true
	}
	e2, ok2 := a.l2.(*ml.Ensemble)
	if !ok2 {
		return nil, nil, false
	}
	return e1, e2, true
}

// Artifact container format:
//
//	magic   "SPLITMDL"                   8 bytes
//	version uint16 little-endian         currently 1
//	meta    uint32 length + JSON Meta    (Meta.Family is the payload kind tag)
//	level1  uint32 length + family payload blob
//	level2  uint32 length + family payload blob (length 0 when absent)
//	crc     uint32                       IEEE CRC-32 of everything above
//
// The payload sections are encoded and decoded by the Meta.Family's codec
// (self-checking blobs with their own magic, version, and CRC), dispatched
// through the registry. Bagging payloads are ml ensemble blobs exactly as
// before the kind tag existed, and an absent Family tag means bagging, so
// the container version stays 1 and pre-family artifacts load unchanged.
const (
	artifactMagic = "SPLITMDL"
	// ArtifactCodecVersion is the current on-disk artifact format version.
	ArtifactCodecVersion = 1
)

// MarshalBinary encodes the artifact in the versioned container format,
// dispatching the payload sections through the Meta.Family's codec.
func (a *Artifact) MarshalBinary() ([]byte, error) {
	fam, err := FamilyByName(a.Meta.Family)
	if err != nil {
		return nil, fmt.Errorf("model: artifact %s: %w", a.Meta.Config, err)
	}
	metaBlob, err := json.Marshal(a.Meta)
	if err != nil {
		return nil, fmt.Errorf("model: encoding artifact metadata: %w", err)
	}
	l1Blob, err := fam.Encode(a.l1)
	if err != nil {
		return nil, fmt.Errorf("model: encoding level-1 payload: %w", err)
	}
	var l2Blob []byte
	if a.l2 != nil {
		if l2Blob, err = fam.Encode(a.l2); err != nil {
			return nil, fmt.Errorf("model: encoding level-2 payload: %w", err)
		}
	}
	buf := make([]byte, 0, len(artifactMagic)+2+3*4+len(metaBlob)+len(l1Blob)+len(l2Blob)+4)
	buf = append(buf, artifactMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, ArtifactCodecVersion)
	for _, blob := range [][]byte{metaBlob, l1Blob, l2Blob} {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// UnmarshalArtifact decodes an artifact encoded by MarshalBinary,
// validating the container checksum, the embedded family payload blobs, and
// the consistency of the metadata with the decoded payloads.
func UnmarshalArtifact(data []byte) (*Artifact, error) {
	headerLen := len(artifactMagic) + 2
	if len(data) < headerLen+3*4+4 {
		return nil, fmt.Errorf("model: artifact blob truncated (%d bytes)", len(data))
	}
	if string(data[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("model: not a model artifact (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[len(artifactMagic):]); v != ArtifactCodecVersion {
		return nil, fmt.Errorf("model: unsupported artifact codec version %d (have %d)",
			v, ArtifactCodecVersion)
	}
	if got, stored := crc32.ChecksumIEEE(data[:len(data)-4]),
		binary.LittleEndian.Uint32(data[len(data)-4:]); got != stored {
		return nil, fmt.Errorf("model: artifact blob checksum mismatch (corrupted payload)")
	}
	off := headerLen
	var blobs [3][]byte
	for i := range blobs {
		if off+4 > len(data)-4 {
			return nil, fmt.Errorf("model: artifact blob truncated inside section %d", i)
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if n < 0 || off+n > len(data)-4 {
			return nil, fmt.Errorf("model: artifact section %d length %d exceeds blob", i, n)
		}
		blobs[i] = data[off : off+n]
		off += n
	}
	if off != len(data)-4 {
		return nil, fmt.Errorf("model: artifact blob has %d trailing bytes", len(data)-4-off)
	}

	a := &Artifact{}
	if err := json.Unmarshal(blobs[0], &a.Meta); err != nil {
		return nil, fmt.Errorf("model: decoding artifact metadata: %w", err)
	}
	fam, err := FamilyByName(a.Meta.Family)
	if err != nil {
		return nil, fmt.Errorf("model: decoding artifact: %w", err)
	}
	l1, err := fam.Decode(blobs[1])
	if err != nil {
		return nil, fmt.Errorf("model: decoding level-1 payload: %w", err)
	}
	a.l1 = l1
	switch {
	case a.Meta.Level == 2 && len(blobs[2]) == 0:
		return nil, fmt.Errorf("model: two-level artifact is missing its level-2 payload")
	case a.Meta.Level != 2 && len(blobs[2]) != 0:
		return nil, fmt.Errorf("model: level-%d artifact carries an unexpected level-2 payload", a.Meta.Level)
	case len(blobs[2]) != 0:
		l2, err := fam.Decode(blobs[2])
		if err != nil {
			return nil, fmt.Errorf("model: decoding level-2 payload: %w", err)
		}
		a.l2 = l2
	}
	return a, nil
}

// WriteFile atomically serializes the artifact to path (temp file plus
// rename, so concurrent readers never observe a partial artifact).
func (a *Artifact) WriteFile(path string) error {
	blob, err := a.MarshalBinary()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("model: writing artifact: %w", err)
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("model: writing artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("model: writing artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("model: writing artifact: %w", err)
	}
	return nil
}

// LoadFile reads and decodes an artifact written by WriteFile.
func LoadFile(path string) (*Artifact, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("model: loading artifact: %w", err)
	}
	a, err := UnmarshalArtifact(blob)
	if err != nil {
		return nil, fmt.Errorf("model: loading artifact %s: %w", path, err)
	}
	return a, nil
}
