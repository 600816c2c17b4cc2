package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
)

// chunkBytes is about how many bytes writeResult hands w per Write.
const chunkBytes = 64 << 10

// writeResult writes exactly json.MarshalIndent(res, "", "  ") followed by
// a newline: the document results/<id>.json holds and GET
// /jobs/{id}/result serves. encoding/json encodes every field except the
// attack's evaluation section, the part that grows with the design;
// writeResult encodes that section itself in encoding/json's format and
// streams it to w in chunks of about chunkBytes, so the document is never
// held in memory whole. A NaN or ±Inf fails the call, as it fails
// MarshalIndent, before any byte is written.
func writeResult(w io.Writer, res *Result) error {
	head := *res
	var ev *Eval
	if res.Attack != nil && res.Attack.Evaluation != nil {
		ev = res.Attack.Evaluation
		if err := checkFinite(ev); err != nil {
			return err
		}
		att := *res.Attack
		att.Evaluation = nil
		head.Attack = &att
	}
	data, err := json.MarshalIndent(&head, "", "  ")
	if err != nil {
		return err
	}
	if ev == nil {
		_, err = w.Write(append(data, '\n'))
		return err
	}
	at := evalOffset(data)
	// The slack holds the element that carries buf past chunkBytes.
	e := &evalWriter{w: w, buf: make([]byte, 0, chunkBytes+4<<10)}
	e.buf = append(e.buf, data[:at]...)
	e.eval(ev)
	e.buf = append(e.buf, data[at:]...)
	e.buf = append(e.buf, '\n')
	e.flush()
	return e.err
}

// evalOffset is where MarshalIndent puts the evaluation member in data, an
// indented result whose attack section has none: right after the
// eval_digest value, the member the evaluation follows. A raw newline and
// four spaces can only be document structure, since JSON strings escape
// newlines, so the first eval_digest member at depth two after the result's
// attack member is the attack section's own, and its value ends where its
// line ends, before any comma.
func evalOffset(data []byte) int {
	at := bytes.Index(data, []byte("\n  \"attack\": {"))
	at += bytes.Index(data[at:], []byte("\n    \"eval_digest\": "))
	at += bytes.IndexByte(data[at+1:], '\n') + 1
	if data[at-1] == ',' {
		at--
	}
	return at
}

// checkFinite rejects the float32 values encoding/json cannot encode.
func checkFinite(ev *Eval) error {
	bad := func(x float32) bool { return math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) }
	for _, p := range ev.TruthP {
		if bad(p) {
			return fmt.Errorf("serve: unsupported value in truth_p: %v", p)
		}
	}
	for a, row := range ev.Cands {
		for _, c := range row {
			if bad(c.P) || bad(c.D) {
				return fmt.Errorf("serve: unsupported value in a candidate of v-pin %d: p %v, d %v", a, c.P, c.D)
			}
		}
	}
	return nil
}

// evalWriter appends the evaluation section to buf and hands buf to w
// whenever it reaches chunkBytes. After a failed Write it keeps only the
// error.
type evalWriter struct {
	w   io.Writer
	buf []byte
	err error
	// last holds the encoding of the probability whose bits are lastP.
	last  []byte
	lastP uint32
}

func (e *evalWriter) flush() {
	if e.err == nil {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

func (e *evalWriter) maybeFlush() {
	if len(e.buf) >= chunkBytes {
		e.flush()
	}
}

// eval appends the ",\n    \"evaluation\": {...}" member, indented as
// MarshalIndent indents it at depth two.
func (e *evalWriter) eval(ev *Eval) {
	e.buf = append(e.buf, ",\n    \"evaluation\": {\n      \"n\": "...)
	e.buf = strconv.AppendInt(e.buf, int64(ev.N), 10)
	e.buf = append(e.buf, ",\n      \"truth\": "...)
	e.array(3, ev.Truth == nil, len(ev.Truth), func(i int) {
		e.buf = strconv.AppendInt(e.buf, int64(ev.Truth[i]), 10)
	})
	e.buf = append(e.buf, ",\n      \"truth_p\": "...)
	e.array(3, ev.TruthP == nil, len(ev.TruthP), func(i int) {
		e.buf = appendFloat32(e.buf, ev.TruthP[i])
	})
	e.buf = append(e.buf, ",\n      \"candidates\": "...)
	e.array(3, ev.Cands == nil, len(ev.Cands), func(i int) {
		row := ev.Cands[i]
		e.array(4, row == nil, len(row), func(j int) {
			c := row[j]
			e.buf = append(e.buf, "{\n            \"other\": "...)
			e.buf = strconv.AppendInt(e.buf, int64(c.Other), 10)
			e.buf = append(e.buf, ",\n            \"p\": "...)
			e.prob(c.P)
			e.buf = append(e.buf, ",\n            \"d\": "...)
			e.buf = appendFloat32(e.buf, c.D)
			e.buf = append(e.buf, "\n          }"...)
		})
	})
	e.buf = append(e.buf, "\n    }"...)
}

// prob appends a candidate's probability. A bagged ensemble's votes take
// few distinct values, so a candidate often has its predecessor's
// probability; that encoding is kept and copied.
func (e *evalWriter) prob(p float32) {
	if bits := math.Float32bits(p); e.last == nil || bits != e.lastP {
		start := len(e.buf)
		e.buf = appendFloat32(e.buf, p)
		e.last, e.lastP = append(e.last[:0], e.buf[start:]...), bits
		return
	}
	e.buf = append(e.buf, e.last...)
}

// indents holds a newline and the indentation of every depth the
// evaluation section reaches: depth d is indents[:1+2*d].
const indents = "\n            "

// array appends an array of n elements whose brackets sit at the given
// depth, as MarshalIndent writes it: null for a nil slice, [] for an
// empty one, else one element per line one depth deeper. elem appends
// element i.
func (e *evalWriter) array(depth int, isNil bool, n int, elem func(i int)) {
	switch {
	case isNil:
		e.buf = append(e.buf, "null"...)
		return
	case n == 0:
		e.buf = append(e.buf, "[]"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := 0; i < n; i++ {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, indents[:3+2*depth]...)
		elem(i)
		e.maybeFlush()
	}
	e.buf = append(e.buf, indents[:1+2*depth]...)
	e.buf = append(e.buf, ']')
}

// appendFloat32 appends a finite x as encoding/json encodes a float32: the
// shortest decimal that round-trips, in 'f' format unless 0 < |x| < 1e-6
// or |x| ≥ 1e21, and then in 'e' format with e-09 cleaned to e-9.
//
// An integer of magnitude below 2^24 takes a shortcut: float32 holds
// every such integer and its neighbours lie at most 1 away, so the
// shortest round-tripping decimal is the integer itself. Candidate
// distances are integers, since v-pin coordinates are.
func appendFloat32(b []byte, x float32) []byte {
	if x > -1<<24 && x < 1<<24 {
		if i := int32(x); float32(i) == x && (i != 0 || !math.Signbit(float64(x))) {
			return strconv.AppendInt(b, int64(i), 10)
		}
	}
	f := float64(x)
	abs := float32(math.Abs(f))
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 32)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
