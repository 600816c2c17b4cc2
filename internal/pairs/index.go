package pairs

import (
	"math"

	"repro/internal/split"
)

// vpinIndex accelerates candidate enumeration: a uniform tile grid for
// neighborhood queries and exact-y buckets for the "Y" configurations.
//
// The grid is one array: the v-pins of tile t (row-major, t = ty*nx + tx)
// are entries start[t] .. start[t+1]-1, in v-pin id order, and each entry
// carries its id, coordinates and driver flag. Every row's tiles are
// therefore one contiguous run of entries, which the neighborhood walk
// scans in memory order.
type vpinIndex struct {
	n     int
	tile  float64
	nx    int
	ny    int
	start []int32   // per-tile entry offsets, nx*ny+1 of them
	id    []int32   // entry -> v-pin
	ex    []float64 // entry x
	ey    []float64 // entry y
	edrv  []bool    // entry is a driver-side v-pin
	byY   map[int64][]int32
	xs    []float64 // v-pin -> x
	ys    []float64 // v-pin -> y
	drv   []bool    // v-pin -> driver side
}

func newVpinIndex(ch *split.Challenge) *vpinIndex {
	die := ch.Design.Die()
	n := len(ch.VPins)
	// The grid granularity scales with the v-pin population so buckets hold
	// a few dozen entries on average: the historical 32×32 grid up to ~24k
	// v-pins (every pre-industrial design — their indexes are unchanged),
	// proportionally finer above, which keeps neighborhood queries bounded
	// by the radius instead of the bucket population at industrial scale.
	div := 32
	if d := int(math.Sqrt(float64(n) / 24.0)); d > div {
		div = d
	}
	ix := &vpinIndex{
		n:    n,
		tile: float64(die.Width()) / float64(div),
		id:   make([]int32, n),
		ex:   make([]float64, n),
		ey:   make([]float64, n),
		edrv: make([]bool, n),
		byY:  make(map[int64][]int32),
		xs:   make([]float64, n),
		ys:   make([]float64, n),
		drv:  make([]bool, n),
	}
	if ix.tile <= 0 {
		ix.tile = 1
	}
	ix.nx = int(float64(die.Width())/ix.tile) + 2
	ix.ny = int(float64(die.Height())/ix.tile) + 2
	// Counting sort by tile: count, prefix-sum into offsets, then place the
	// v-pins in id order, which keeps insertion order within each tile.
	ix.start = make([]int32, ix.nx*ix.ny+1)
	tileOf := make([]int32, n)
	for i := range ch.VPins {
		x := float64(ch.VPins[i].Pos.X)
		y := float64(ch.VPins[i].Pos.Y)
		ix.xs[i], ix.ys[i] = x, y
		ix.drv[i] = ch.VPins[i].IsDriverSide()
		tx, ty := ix.tileOf(x, y)
		tileOf[i] = int32(ty*ix.nx + tx)
		ix.start[tileOf[i]+1]++
		yi := int64(ch.VPins[i].Pos.Y)
		ix.byY[yi] = append(ix.byY[yi], int32(i))
	}
	for t := 1; t < len(ix.start); t++ {
		ix.start[t] += ix.start[t-1]
	}
	next := append([]int32(nil), ix.start[:len(ix.start)-1]...)
	for i, t := range tileOf {
		k := next[t]
		next[t]++
		ix.id[k], ix.ex[k], ix.ey[k], ix.edrv[k] = int32(i), ix.xs[i], ix.ys[i], ix.drv[i]
	}
	return ix
}

func (ix *vpinIndex) tileOf(x, y float64) (int, int) {
	return ix.cell(x, ix.nx), ix.cell(y, ix.ny)
}

// cell is the grid coordinate of v along an axis of n tiles; points off
// the grid clamp into its edge tiles.
func (ix *vpinIndex) cell(v float64, n int) int {
	return min(max(int(v/ix.tile), 0), n-1)
}

// regions partitions the v-pins member marks into spatially-contiguous
// shards of at most size entries each, in the grid's row-major entry order
// (the order the neighborhood walk visits tiles in). Workers taking one
// region at a time touch neighboring v-pins together — their candidate
// tiles overlap, so the extractor's and index's cache lines stay hot — and
// the retained lists are independent of which worker processes which
// region (retention is order-free). The shards share one backing array, so
// the partition costs two allocations however many regions it holds.
func (ix *vpinIndex) regions(member []bool, size int) [][]int32 {
	size = max(size, 1)
	total := 0
	for _, m := range member {
		if m {
			total++
		}
	}
	order := make([]int32, 0, total)
	for _, b := range ix.id {
		if member[b] {
			order = append(order, b)
		}
	}
	out := make([][]int32, 0, (total+size-1)/size)
	for lo := 0; lo < total; lo += size {
		hi := min(lo+size, total)
		out = append(out, order[lo:hi:hi])
	}
	return out
}

// appendAdmitted appends to dst every v-pin b admitted as a candidate of a
// and returns the extended slice: b != a, the pair is legal (not two
// driver sides), and b passes the geometric filters — within Manhattan
// distance radius of a (radius < 0 disables the test) or, under yLimit, on
// a's exact y track and within |dx| <= radius.
//
// The append order is the pipeline's canonical enumeration order: the
// y bucket or all v-pins in id order, or the grid's tiles row by row, left
// to right, entries in insertion order. It is the row order of the batched
// feature matrices and the order training's reservoir sampling draws
// negatives in, so it must stay deterministic.
//
// The neighborhood walk visits, in each tile row of the radius's bounding
// square, only the columns that can hold a point of the Manhattan diamond:
// those within radius minus the row's nearest y distance to a, widened by
// one tile on each side so that float rounding of the tile arithmetic
// cannot drop a point. Every entry it reads gets the full per-point test,
// so the admitted ids and their order equal those of a scan of the whole
// square (TestEnumerationOrderMatchesReference).
func (ix *vpinIndex) appendAdmitted(dst []int32, a int, radius float64, yLimit bool) []int32 {
	a32, aDrv := int32(a), ix.drv[a]
	if yLimit {
		x := ix.xs[a]
		for _, b := range ix.byY[int64(ix.ys[a])] {
			if b == a32 || (aDrv && ix.drv[b]) {
				continue
			}
			if radius >= 0 {
				d := x - ix.xs[b]
				if d < 0 {
					d = -d
				}
				if d > radius {
					continue
				}
			}
			dst = append(dst, b)
		}
		return dst
	}
	if radius < 0 {
		for b := int32(0); b < int32(ix.n); b++ {
			if b != a32 && !(aDrv && ix.drv[b]) {
				dst = append(dst, b)
			}
		}
		return dst
	}
	x, y := ix.xs[a], ix.ys[a]
	tx0, ty0 := ix.tileOf(x-radius, y-radius)
	tx1, ty1 := ix.tileOf(x+radius, y+radius)
	for ty := ty0; ty <= ty1; ty++ {
		// gap bounds |y - y_b| from below for every entry of the row; the
		// edge rows also hold the points clamped into them.
		gap := 0.0
		if lo := float64(ty) * ix.tile; ty > 0 && y < lo {
			gap = lo - y
		} else if hi := float64(ty+1) * ix.tile; ty < ix.ny-1 && y > hi {
			gap = y - hi
		}
		w := max(radius-gap, 0)
		cx0 := max(ix.cell(x-w, ix.nx)-1, tx0)
		cx1 := min(ix.cell(x+w, ix.nx)+1, tx1)
		lo, hi := ix.start[ty*ix.nx+cx0], ix.start[ty*ix.nx+cx1+1]
		ids, ex, ey, edrv := ix.id[lo:hi], ix.ex[lo:hi], ix.ey[lo:hi], ix.edrv[lo:hi]
		for k, b := range ids {
			dx := x - ex[k]
			if dx < 0 {
				dx = -dx
			}
			dy := y - ey[k]
			if dy < 0 {
				dy = -dy
			}
			if dx+dy <= radius && b != a32 && !(aDrv && edrv[k]) {
				dst = append(dst, b)
			}
		}
	}
	return dst
}
