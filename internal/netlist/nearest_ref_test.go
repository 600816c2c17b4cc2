package netlist

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// refCellIndex is the reference nearest-cell search: tile buckets of cell
// IDs, positions read through pos for every candidate, removal by a scan
// of the bucket, and a map of excluded cells. It visits every tile of
// every ring, so cellIndex, which skips the tiles that cannot improve on
// the best distance, must pick the same cell for every query.
type refCellIndex struct {
	die   geom.Rect
	tile  geom.Coord
	nx    int
	ny    int
	cells [][]int // tile -> cell IDs
	pos   func(int) geom.Point
	slot  map[int]int // cell ID -> tile index, for removal
}

func newRefCellIndex(cells []Cell, pos func(int) geom.Point, die geom.Rect) *refCellIndex {
	tiles := len(cells)/32 + 1
	tile := die.Width()
	for nx := 1; nx*nx < tiles; nx++ {
		tile = die.Width() / geom.Coord(nx)
	}
	if tile <= 0 {
		tile = 1
	}
	ix := &refCellIndex{
		die:  die,
		tile: tile,
		nx:   int(die.Width()/tile) + 1,
		ny:   int(die.Height()/tile) + 1,
		pos:  pos,
		slot: make(map[int]int, len(cells)),
	}
	ix.cells = make([][]int, ix.nx*ix.ny)
	for _, c := range cells {
		if len(c.Kind.Inputs()) == 0 {
			continue
		}
		ti := ix.tileOf(pos(c.ID))
		ix.cells[ti] = append(ix.cells[ti], c.ID)
		ix.slot[c.ID] = ti
	}
	return ix
}

func (ix *refCellIndex) tileOf(p geom.Point) int {
	q := ix.die.ClampPoint(p)
	tx := int((q.X - ix.die.Lo.X) / ix.tile)
	ty := int((q.Y - ix.die.Lo.Y) / ix.tile)
	if tx >= ix.nx {
		tx = ix.nx - 1
	}
	if ty >= ix.ny {
		ty = ix.ny - 1
	}
	return ty*ix.nx + tx
}

func (ix *refCellIndex) remove(cellID int) {
	ti, ok := ix.slot[cellID]
	if !ok {
		return
	}
	delete(ix.slot, cellID)
	bucket := ix.cells[ti]
	for i, id := range bucket {
		if id == cellID {
			bucket[i] = bucket[len(bucket)-1]
			ix.cells[ti] = bucket[:len(bucket)-1]
			return
		}
	}
}

func (ix *refCellIndex) nearest(target geom.Point, skip map[int]bool) (int, bool) {
	q := ix.die.ClampPoint(target)
	tx := int((q.X - ix.die.Lo.X) / ix.tile)
	ty := int((q.Y - ix.die.Lo.Y) / ix.tile)
	best, bestD := -1, geom.Coord(1)<<60
	maxR := ix.nx + ix.ny
	for r := 0; r <= maxR; r++ {
		found := false
		for dy := -r; dy <= r; dy++ {
			y := ty + dy
			if y < 0 || y >= ix.ny {
				continue
			}
			for dx := -r; dx <= r; dx++ {
				if dx > -r && dx < r && dy > -r && dy < r {
					continue
				}
				x := tx + dx
				if x < 0 || x >= ix.nx {
					continue
				}
				for _, id := range ix.cells[y*ix.nx+x] {
					if skip[id] {
						continue
					}
					d := ix.pos(id).Manhattan(target)
					if d < bestD {
						best, bestD = id, d
						found = true
					}
				}
			}
		}
		if best >= 0 && !found {
			break
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// nearestCase is one die with its cells, both indexes over them, and the
// cells that still have a free input pin.
type nearestCase struct {
	die  geom.Rect
	ix   *cellIndex
	ref  *refCellIndex
	live []int
}

func newNearestCase(t *testing.T, rng *rand.Rand, die geom.Rect, n int) *nearestCase {
	cells, _ := testCells(t, n, rng)
	pts := make([]geom.Point, len(cells))
	corners := []geom.Point{die.Lo, die.Hi, geom.Pt(die.Lo.X, die.Hi.Y), geom.Pt(die.Hi.X, die.Lo.Y)}
	for i := range pts {
		switch k := rng.Intn(10); {
		case k == 0: // on a corner
			pts[i] = corners[rng.Intn(len(corners))]
		case k == 1: // on an edge
			pts[i] = randomIn(rng, die)
			if rng.Intn(2) == 0 {
				pts[i].X = []geom.Coord{die.Lo.X, die.Hi.X}[rng.Intn(2)]
			} else {
				pts[i].Y = []geom.Coord{die.Lo.Y, die.Hi.Y}[rng.Intn(2)]
			}
		case k == 2: // outside the die, clamped onto an edge tile
			pts[i] = randomIn(rng, grow(die))
		default:
			pts[i] = randomIn(rng, die)
		}
	}
	pos := func(id int) geom.Point { return pts[id] }
	var ids []int
	for _, c := range cells {
		if len(c.Kind.Inputs()) > 0 {
			ids = append(ids, c.ID)
		}
	}
	return &nearestCase{
		die:  die,
		ix:   newCellIndex(die, pos, ids, len(cells)),
		ref:  newRefCellIndex(cells, pos, die),
		live: ids,
	}
}

// grow returns r widened by a fifth of its size (at least 50) on each side.
func grow(r geom.Rect) geom.Rect {
	mx, my := max(r.Width()/5, 50), max(r.Height()/5, 50)
	return geom.R(r.Lo.X-mx, r.Lo.Y-my, r.Hi.X+mx, r.Hi.Y+my)
}

func randomIn(rng *rand.Rand, r geom.Rect) geom.Point {
	return geom.Pt(r.Lo.X+geom.Coord(rng.Int63n(int64(r.Width())+1)),
		r.Lo.Y+geom.Coord(rng.Int63n(int64(r.Height())+1)))
}

// query asks both indexes for the cell nearest to target, with the cells
// of skip excluded, and fails the test if they differ.
func (c *nearestCase) query(t *testing.T, target geom.Point, skip []int) {
	t.Helper()
	set := make(map[int]bool, len(skip))
	c.ix.beginNet()
	for _, id := range skip {
		set[id] = true
		c.ix.exclude(id)
	}
	got, gotOK := c.ix.nearest(target)
	want, wantOK := c.ref.nearest(target, set)
	if got != want || gotOK != wantOK {
		t.Fatalf("die %v, %d live cells, target %v, %d excluded: nearest = (%d, %v), reference (%d, %v)",
			c.die, len(c.live), target, len(skip), got, gotOK, want, wantOK)
	}
}

// remove drops the i-th live cell from both indexes.
func (c *nearestCase) remove(i int) {
	id := c.live[i]
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	c.ix.remove(id)
	c.ref.remove(id)
}

// TestNearestMatchesReference holds cellIndex.nearest to the reference
// search: the same cell, or the same miss, for random dies (offset,
// non-square, a single tile, small enough that cells share tile borders
// and distances), cell sets (on corners, on edges, outside the
// die), targets (inside, on corners and edges, outside the die) and
// exclusion sets (none, random, every cell), with removals interleaved
// with the queries, and a final query after every cell is removed.
func TestNearestMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dies := []geom.Rect{
		geom.R(0, 0, 36000, 36000),
		geom.R(-5000, 2000, 7000, 30000), // offset and tall
		geom.R(100, 100, 40100, 9100),    // wide
		geom.R(7, 7, 7, 7),               // a point: one tile
		geom.R(0, 0, 30, 500),            // tiles narrower than the default
	}
	for trial := 0; trial < 60; trial++ {
		die := dies[trial%len(dies)]
		if trial >= 2*len(dies) {
			lo := geom.Pt(geom.Coord(rng.Intn(20000)-10000), geom.Coord(rng.Intn(20000)-10000))
			w := 1000 + geom.Coord(rng.Intn(60000))
			if trial%2 == 0 {
				// Small dies put many cells and targets on tile borders.
				w = 20 + geom.Coord(rng.Intn(400))
			}
			h := w/4 + geom.Coord(rng.Int63n(int64(w)*4))
			die = geom.R(lo.X, lo.Y, lo.X+w, lo.Y+h)
		}
		n := 1 + rng.Intn(600)
		if trial%7 == 0 {
			n = 1 + rng.Intn(40) // a handful of tiles, or one
		}
		c := newNearestCase(t, rng, die, n)
		corners := []geom.Point{die.Lo, die.Hi, geom.Pt(die.Lo.X, die.Hi.Y), geom.Pt(die.Hi.X, die.Lo.Y)}
		for q := 0; len(c.live) > 0; q++ {
			var target geom.Point
			switch k := rng.Intn(8); {
			case k == 0:
				target = corners[rng.Intn(len(corners))]
			case k == 1:
				target = randomIn(rng, grow(die))
			default:
				target = randomIn(rng, die)
			}
			var skip []int
			switch k := rng.Intn(6); {
			case k == 0: // every live cell
				skip = append(skip, c.live...)
			case k <= 2:
				for i := rng.Intn(9); i > 0; i-- {
					skip = append(skip, c.live[rng.Intn(len(c.live))])
				}
			}
			c.query(t, target, skip)
			if rng.Intn(3) > 0 {
				c.remove(rng.Intn(len(c.live)))
			}
		}
		c.query(t, randomIn(rng, die), nil) // nothing left
	}
}
