// Package features computes the 11 pair-wise layout features of the paper's
// machine-learning model (§III-B) from a split-manufacturing challenge.
//
// Each sample describes a *pair* of v-pins and is labelled by whether the
// two are truly the two sides of one cut net. The Extractor precomputes all
// per-v-pin quantities once so the inner testing loop — which may evaluate
// tens of millions of pairs — only performs a few arithmetic operations per
// pair.
package features

import (
	"repro/internal/split"
)

// Feature indices. The paper's "first 9 features" are DiffPinX through
// DiffArea; Imp-7 removes TotalWirelength and TotalArea; Imp-11 adds the
// two congestion features.
const (
	DiffPinX = iota
	DiffPinY
	ManhattanPin
	DiffVpinX
	DiffVpinY
	ManhattanVpin
	TotalWirelength
	TotalArea
	DiffArea
	PlacementCongestion
	RoutingCongestion
	// NumFeatures is the size of the paper's full feature vector — and the
	// base row width every pre-existing configuration uses. The routing-hint
	// block below extends vectors past it; Width resolves the width a
	// feature set actually needs.
	NumFeatures
)

// Routing-hint feature block: wirelength/direction-of-travel features in the
// spirit of the DL-perspective attack (Li et al., DAC'19/TCAD'20), which
// augments the pair geometry with hints about where each cut route was
// heading. The indices sit past NumFeatures so the paper's Set9/Set7/Set11
// vectors — and everything hashed over them — stay byte-identical; only
// configurations that select these indices get the wider rows.
const (
	// RoutingSlackSum is slack_a + slack_b, where slack_i is v-pin i's
	// routed wirelength minus the direct pin-to-v-pin Manhattan distance —
	// how much detour the FEOL fragment took.
	RoutingSlackSum = NumFeatures + iota
	// RoutingSlackDiff is |slack_a - slack_b|: matching fragments of one net
	// tend to have been detoured by the same congestion.
	RoutingSlackDiff
	// RoutingNetLength estimates the joined net's total length:
	// w_a + w_b + ManhattanVpin.
	RoutingNetLength
	// RoutingDirAlign measures direction-of-travel agreement: the
	// L1-normalised pin-to-v-pin travel direction of each side, projected
	// onto the (normalised) v-pin displacement toward the other side and
	// summed. Truly matching fragments travel toward each other, so the
	// feature is large and positive for true pairs. Symmetric in (a, b).
	RoutingDirAlign
	// NumAll is the width of a vector carrying the routing-hint block.
	NumAll
)

// Names maps feature indices to the names used in the paper.
var Names = [NumFeatures]string{
	"DiffPinX",
	"DiffPinY",
	"ManhattanPin",
	"DiffVpinX",
	"DiffVpinY",
	"ManhattanVpin",
	"TotalWireLength",
	"TotalCellArea",
	"DiffCellArea",
	"PlacementCongestion",
	"RoutingCongestion",
}

// routingNames extends Names over the routing-hint block.
var routingNames = [NumAll - NumFeatures]string{
	"RoutingSlackSum",
	"RoutingSlackDiff",
	"RoutingNetLength",
	"RoutingDirAlign",
}

// Name returns the display name of any feature index, covering both the
// paper's block (Names) and the routing-hint block.
func Name(i int) string {
	if i < NumFeatures {
		return Names[i]
	}
	return routingNames[i-NumFeatures]
}

// Width is the feature-row width a feature set needs: NumFeatures for every
// subset of the paper's block (keeping those rows byte-identical to what
// they always were), and up to NumAll when routing-hint indices appear.
func Width(set []int) int {
	w := NumFeatures
	for _, f := range set {
		if f >= w {
			w = f + 1
		}
	}
	return w
}

// Set9 is the feature subset of the ML-9 and Imp-9 configurations: the
// first nine features of §III-B.
func Set9() []int {
	return []int{DiffPinX, DiffPinY, ManhattanPin, DiffVpinX, DiffVpinY,
		ManhattanVpin, TotalWirelength, TotalArea, DiffArea}
}

// Set7 is Imp-7's subset: Set9 minus the two least important features,
// TotalWirelength and TotalCellArea (paper §IV).
func Set7() []int {
	return []int{DiffPinX, DiffPinY, ManhattanPin, DiffVpinX, DiffVpinY,
		ManhattanVpin, DiffArea}
}

// Set11 is the full feature set of Imp-11.
func Set11() []int {
	s := make([]int, NumFeatures)
	for i := range s {
		s[i] = i
	}
	return s
}

// Set15 is Set11 plus the routing-hint block — the feature set of the
// DL-perspective configurations.
func Set15() []int {
	s := make([]int, NumAll)
	for i := range s {
		s[i] = i
	}
	return s
}

// Extractor computes pair feature vectors for one challenge.
type Extractor struct {
	n              int
	px, py, vx, vy []float64
	w, inA, outA   []float64
	pc, rc         []float64
	ux, uy, slack  []float64
	driver         []bool
}

// NewExtractor caches the per-v-pin features (§III-A) of all v-pins in c.
func NewExtractor(c *split.Challenge) *Extractor {
	n := len(c.VPins)
	e := &Extractor{
		n:  n,
		px: make([]float64, n), py: make([]float64, n),
		vx: make([]float64, n), vy: make([]float64, n),
		w: make([]float64, n), inA: make([]float64, n), outA: make([]float64, n),
		pc: make([]float64, n), rc: make([]float64, n),
		ux: make([]float64, n), uy: make([]float64, n), slack: make([]float64, n),
		driver: make([]bool, n),
	}
	for i := range c.VPins {
		v := &c.VPins[i]
		e.px[i], e.py[i] = float64(v.PinLoc.X), float64(v.PinLoc.Y)
		e.vx[i], e.vy[i] = float64(v.Pos.X), float64(v.Pos.Y)
		e.w[i] = float64(v.Wirelength)
		e.inA[i], e.outA[i] = v.InArea, v.OutArea
		e.pc[i], e.rc[i] = c.PC(v), c.RC(v)
		e.driver[i] = v.IsDriverSide()
		// Routing hints: the FEOL fragment's direction of travel is the
		// L1-normalised pin→v-pin displacement (zero when pin == v-pin),
		// its slack the routed wirelength beyond that direct distance.
		dx, dy := e.vx[i]-e.px[i], e.vy[i]-e.py[i]
		if l := abs(dx) + abs(dy); l > 0 {
			e.ux[i], e.uy[i] = dx/l, dy/l
		}
		e.slack[i] = e.w[i] - abs(dx) - abs(dy)
	}
	return e
}

// N returns the number of v-pins the extractor covers.
func (e *Extractor) N() int { return e.n }

// Legal reports whether the pair (a, b) is electrically legal: at most one
// of the two fragments may end in an output pin.
func (e *Extractor) Legal(a, b int) bool {
	return !(e.driver[a] && e.driver[b])
}

// Pair fills out with the features of the v-pin pair (a, b). out must have
// length NumFeatures, or NumAll when a configuration selects routing-hint
// indices (the extra block is only computed when out reaches into it, so
// 11-wide rows cost exactly what they always did). All features are
// symmetric, bit for bit: Pair(a, b) equals Pair(b, a) in every
// math.Float64bits, which lets the scorer score a pair once for both of
// its v-pins. Differences enter through absolute values, and sums either
// have two terms (commutative in floating point) or add terms that are
// themselves symmetric. The four-term TotalArea sum is order-independent
// only because split gives each v-pin at most one non-zero of InArea and
// OutArea, so at most two of its terms are non-zero.
func (e *Extractor) Pair(a, b int, out []float64) {
	out[DiffPinX] = abs(e.px[a] - e.px[b])
	out[DiffPinY] = abs(e.py[a] - e.py[b])
	out[ManhattanPin] = out[DiffPinX] + out[DiffPinY]
	out[DiffVpinX] = abs(e.vx[a] - e.vx[b])
	out[DiffVpinY] = abs(e.vy[a] - e.vy[b])
	out[ManhattanVpin] = out[DiffVpinX] + out[DiffVpinY]
	out[TotalWirelength] = e.w[a] + e.w[b]
	out[TotalArea] = e.inA[a] + e.inA[b] + e.outA[a] + e.outA[b]
	out[DiffArea] = (e.outA[a] + e.outA[b]) - (e.inA[a] + e.inA[b])
	out[PlacementCongestion] = e.pc[a] + e.pc[b]
	out[RoutingCongestion] = e.rc[a] + e.rc[b]
	if len(out) > NumFeatures {
		e.routingPair(a, b, out)
	}
}

// routingPair fills the routing-hint block. RoutingDirAlign projects each
// side's travel direction onto the v-pin displacement pointing at the other
// side; writing both projections against the a→b displacement t flips the
// sign of b's term, so the sum is symmetric under swapping a and b.
func (e *Extractor) routingPair(a, b int, out []float64) {
	out[RoutingSlackSum] = e.slack[a] + e.slack[b]
	out[RoutingSlackDiff] = abs(e.slack[a] - e.slack[b])
	out[RoutingNetLength] = e.w[a] + e.w[b] + out[ManhattanVpin]
	tx, ty := e.vx[b]-e.vx[a], e.vy[b]-e.vy[a]
	if l := abs(tx) + abs(ty); l > 0 {
		tx, ty = tx/l, ty/l
	}
	align := (e.ux[a]-e.ux[b])*tx + (e.uy[a]-e.uy[b])*ty
	if align == 0 {
		// An exact zero's sign follows the orientation of t, so it is
		// normalised to +0 to keep the row bit-symmetric.
		align = 0
	}
	out[RoutingDirAlign] = align
}

// VpinDist returns the ManhattanVpin distance of the pair, used for
// neighborhood filtering and the proximity attack without materialising a
// full feature vector.
func (e *Extractor) VpinDist(a, b int) float64 {
	return abs(e.vx[a]-e.vx[b]) + abs(e.vy[a]-e.vy[b])
}

// DiffVpinYOf returns |vy_a - vy_b|, used by the "Y" configurations that
// exploit the single routing direction of the top metal layer.
func (e *Extractor) DiffVpinYOf(a, b int) float64 {
	return abs(e.vy[a] - e.vy[b])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
