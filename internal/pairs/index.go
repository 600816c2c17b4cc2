package pairs

import (
	"math"

	"repro/internal/split"
)

// vpinIndex accelerates candidate enumeration: spatial buckets for
// neighborhood queries and exact-y buckets for the "Y" configurations.
type vpinIndex struct {
	n    int
	tile float64
	nx   int
	ny   int
	grid [][]int32
	byY  map[int64][]int32
	xs   []float64
	ys   []float64
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
		byY:  make(map[int64][]int32),
		xs:   make([]float64, n),
		ys:   make([]float64, n),
	}
	if ix.tile <= 0 {
		ix.tile = 1
	}
	ix.nx = int(float64(die.Width())/ix.tile) + 2
	ix.ny = int(float64(die.Height())/ix.tile) + 2
	ix.grid = make([][]int32, ix.nx*ix.ny)
	for i := range ch.VPins {
		x := float64(ch.VPins[i].Pos.X)
		y := float64(ch.VPins[i].Pos.Y)
		ix.xs[i], ix.ys[i] = x, y
		tx, ty := ix.tileOf(x, y)
		ix.grid[ty*ix.nx+tx] = append(ix.grid[ty*ix.nx+tx], int32(i))
		yi := int64(ch.VPins[i].Pos.Y)
		ix.byY[yi] = append(ix.byY[yi], int32(i))
	}
	return ix
}

func (ix *vpinIndex) tileOf(x, y float64) (int, int) {
	tx := int(x / ix.tile)
	ty := int(y / ix.tile)
	if tx < 0 {
		tx = 0
	}
	if ty < 0 {
		ty = 0
	}
	if tx >= ix.nx {
		tx = ix.nx - 1
	}
	if ty >= ix.ny {
		ty = ix.ny - 1
	}
	return tx, ty
}

// regions partitions the v-pins member marks into spatially-contiguous
// shards of at most size entries each, walking the grid tiles in row-major
// order (the same deterministic order candidates uses). Workers taking one
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
	for ti := range ix.grid {
		for _, b := range ix.grid[ti] {
			if member[b] {
				order = append(order, b)
			}
		}
	}
	out := make([][]int32, 0, (total+size-1)/size)
	for lo := 0; lo < total; lo += size {
		hi := min(lo+size, total)
		out = append(out, order[lo:hi:hi])
	}
	return out
}

// candidates invokes fn for every v-pin b that passes the geometric
// pre-filters relative to a (excluding a itself). Legality is not checked
// here; Filter.Enumerate layers it on top. The visit order — y-bucket or
// tile-row-major walk, insertion order within buckets — is the pipeline's
// canonical enumeration order and must stay deterministic: it is the row
// order of the batched feature matrices, the scalar/batch bit-identity
// contract's shared ground.
func (ix *vpinIndex) candidates(a int, radius float64, yLimit bool, fn func(b int32)) {
	if yLimit {
		for _, b := range ix.byY[int64(ix.ys[a])] {
			if int(b) == a {
				continue
			}
			if radius >= 0 {
				d := ix.xs[a] - ix.xs[int(b)]
				if d < 0 {
					d = -d
				}
				if d > radius {
					continue
				}
			}
			fn(b)
		}
		return
	}
	if radius < 0 {
		for b := int32(0); b < int32(ix.n); b++ {
			if int(b) != a {
				fn(b)
			}
		}
		return
	}
	x, y := ix.xs[a], ix.ys[a]
	tx0, ty0 := ix.tileOf(x-radius, y-radius)
	tx1, ty1 := ix.tileOf(x+radius, y+radius)
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			for _, b := range ix.grid[ty*ix.nx+tx] {
				if int(b) == a {
					continue
				}
				dx := x - ix.xs[b]
				if dx < 0 {
					dx = -dx
				}
				dy := y - ix.ys[b]
				if dy < 0 {
					dy = -dy
				}
				if dx+dy <= radius {
					fn(b)
				}
			}
		}
	}
}
