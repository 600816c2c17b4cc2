package sweep

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/attack"
)

// UnitResult is one completed unit's partial result: the fold's evaluation
// plus the neighborhood radius the fold used, with the unit embedded so the
// file is self-describing and a merge can verify provenance.
type UnitResult struct {
	Unit       Unit               `json:"unit"`
	RadiusNorm float64            `json:"radius_norm"`
	Eval       *attack.Evaluation `json:"eval"`
}

// Unit checkpoint container format, mirroring the model artifact codec and
// internal/serve/state.go's atomicity discipline:
//
//	magic   "SPLITUNT"                   8 bytes
//	version uint16 little-endian         currently 1
//	payload uint32 length + JSON UnitResult
//	crc     uint32                       IEEE CRC-32 of everything above
//
// Go's JSON float formatting is shortest-round-trip, so every float32/
// float64 in the evaluation decodes to exactly the bits that were encoded
// and Evaluation.Digest survives the round trip unchanged.
const (
	unitMagic = "SPLITUNT"
	// UnitCodecVersion is the current on-disk unit file format version.
	UnitCodecVersion = 1
)

// Checkpoint is a directory of per-unit partial results, keyed by Unit.Key.
// Writes are atomic (temp file + rename, like serve's state dir), loads are
// CRC-checked, and anything that fails validation — truncated, bit-flipped,
// torn, or foreign — is discarded rather than served. A Checkpoint is safe
// for concurrent use from many goroutines and many processes sharing the
// directory: distinct units touch distinct files, and the same unit written
// twice writes identical bytes.
type Checkpoint struct {
	dir string
}

// Open creates (if needed) and opens a checkpoint directory.
func Open(dir string) (*Checkpoint, error) {
	if dir == "" {
		return nil, errors.New("sweep: checkpoint needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: checkpoint dir: %w", err)
	}
	return &Checkpoint{dir: dir}, nil
}

// Dir returns the checkpoint's directory.
func (c *Checkpoint) Dir() string { return c.dir }

// path is the unit's file under the checkpoint dir.
func (c *Checkpoint) path(u Unit) string {
	return filepath.Join(c.dir, u.Key()+".unit")
}

// Save persists a completed unit atomically: a reader (or a crash) never
// observes a partial file under the unit's final name.
func (c *Checkpoint) Save(res *UnitResult) error {
	if res.Eval == nil {
		return fmt.Errorf("sweep: refusing to checkpoint unit %s without an evaluation", res.Unit)
	}
	buf, err := encodeUnit(res)
	if err != nil {
		return err
	}
	path := c.path(res.Unit)
	tmp, err := os.CreateTemp(c.dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: writing unit %s: %w", res.Unit, err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing unit %s: %w", res.Unit, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing unit %s: %w", res.Unit, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("sweep: writing unit %s: %w", res.Unit, err)
	}
	return nil
}

// Load fetches the unit's partial result. A missing file returns
// (nil, false, nil): the unit has not been computed. A file that fails any
// validation layer — magic, version, length, CRC, JSON, the evaluation's
// shape (see checkEval) — is deleted and
// reported as (nil, true, nil): corrupt partials are discarded and
// recomputed, never served. A file that validates but describes a
// *different* unit (possible only through renaming or a hash collision)
// is a provenance error: the merge must refuse it loudly instead of
// silently combining results from mismatched sweeps.
func (c *Checkpoint) Load(u Unit) (res *UnitResult, discarded bool, err error) {
	path := c.path(u)
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("sweep: reading unit %s: %w", u, err)
	}
	res, derr := decodeUnit(data)
	if derr != nil {
		os.Remove(path)
		return nil, true, nil
	}
	if res.Unit != u {
		return nil, false, fmt.Errorf(
			"sweep: checkpoint %s holds unit %s but the plan expects %s: refusing to merge partials from a different sweep",
			filepath.Base(path), res.Unit, u)
	}
	return res, false, nil
}

// encodeUnit serializes a unit result into the container format above.
func encodeUnit(res *UnitResult) ([]byte, error) {
	payload, err := json.Marshal(res)
	if err != nil {
		return nil, fmt.Errorf("sweep: encoding unit %s: %w", res.Unit, err)
	}
	buf := make([]byte, 0, len(unitMagic)+2+4+len(payload)+4)
	buf = append(buf, unitMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, UnitCodecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf)), nil
}

// decodeUnit validates the container, decodes the payload, and checks the
// evaluation it holds.
func decodeUnit(data []byte) (*UnitResult, error) {
	headerLen := len(unitMagic) + 2 + 4
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("sweep: unit file truncated (%d bytes)", len(data))
	}
	if string(data[:len(unitMagic)]) != unitMagic {
		return nil, errors.New("sweep: not a unit file (bad magic)")
	}
	if v := binary.LittleEndian.Uint16(data[len(unitMagic):]); v != UnitCodecVersion {
		return nil, fmt.Errorf("sweep: unsupported unit codec version %d (have %d)", v, UnitCodecVersion)
	}
	if got, stored := crc32.ChecksumIEEE(data[:len(data)-4]),
		binary.LittleEndian.Uint32(data[len(data)-4:]); got != stored {
		return nil, errors.New("sweep: unit file checksum mismatch (corrupted payload)")
	}
	n := int(binary.LittleEndian.Uint32(data[len(unitMagic)+2:]))
	if headerLen+n != len(data)-4 {
		return nil, fmt.Errorf("sweep: unit payload length %d does not match file", n)
	}
	res := &UnitResult{}
	if err := json.Unmarshal(data[headerLen:len(data)-4], res); err != nil {
		return nil, fmt.Errorf("sweep: decoding unit payload: %w", err)
	}
	if err := checkEval(res); err != nil {
		return nil, err
	}
	return res, nil
}

// checkEval rejects a decoded evaluation that is not the unit's or that
// Digest and the metrics would index out of range: every per-v-pin slice
// holds N entries (so N is not negative), and every truth, candidate and
// subset entry names one of the N v-pins (a truth may also be -1,
// unmatched).
func checkEval(res *UnitResult) error {
	ev, u := res.Eval, res.Unit
	if ev == nil {
		return errors.New("sweep: unit file has no evaluation")
	}
	if ev.ConfigName != u.Config || ev.Design != u.Design || ev.SplitLayer != u.Layer {
		return fmt.Errorf("sweep: unit %s holds an evaluation of %s on %s at layer %d",
			u, ev.ConfigName, ev.Design, ev.SplitLayer)
	}
	n := ev.N
	if len(ev.Truth) != n || len(ev.TruthP) != n || len(ev.Cands) != n {
		return fmt.Errorf("sweep: unit %s: evaluation of %d v-pins holds %d truths, %d truth probabilities and %d lists",
			u, n, len(ev.Truth), len(ev.TruthP), len(ev.Cands))
	}
	for a := 0; a < n; a++ {
		if t := ev.Truth[a]; t < -1 || int(t) >= n {
			return fmt.Errorf("sweep: unit %s: v-pin %d has truth %d of %d v-pins", u, a, t, n)
		}
		for _, c := range ev.Cands[a] {
			if c.Other < 0 || int(c.Other) >= n {
				return fmt.Errorf("sweep: unit %s: v-pin %d lists candidate %d of %d v-pins", u, a, c.Other, n)
			}
		}
	}
	for _, a := range ev.Subset {
		if a < 0 || a >= n {
			return fmt.Errorf("sweep: unit %s: subset names v-pin %d of %d", u, a, n)
		}
	}
	return nil
}
