package netlist

import (
	"fmt"
	"math/rand"

	"repro/internal/cell"
	"repro/internal/geom"
)

// CellMixConfig controls the instance population of a generated netlist.
type CellMixConfig struct {
	// NumCells is the number of standard-cell instances.
	NumCells int
	// NumMacros is the number of macro instances (may be zero).
	NumMacros int
	// SeqFraction is the fraction of standard cells that are flip-flops.
	SeqFraction float64
}

// GenerateCells creates the instance population: a skew toward small
// high-usage gates (inverters, NANDs) as in real designs, a configurable
// flip-flop fraction, and optional macros appended at the end.
func GenerateCells(lib *cell.Library, cfg CellMixConfig, rng *rand.Rand) ([]Cell, error) {
	if cfg.NumCells <= 0 {
		return nil, fmt.Errorf("netlist: NumCells must be positive, got %d", cfg.NumCells)
	}
	std := lib.StandardKinds()
	if len(std) == 0 {
		return nil, fmt.Errorf("netlist: library has no standard kinds")
	}
	var comb, seq []*cell.Kind
	for _, k := range std {
		if len(k.Inputs()) > 0 && k.Name[:3] == "DFF" {
			seq = append(seq, k)
		} else {
			comb = append(comb, k)
		}
	}
	if len(seq) == 0 {
		seq = comb // degenerate libraries: fall back to combinational kinds
	}
	// Weight combinational kinds inversely to area so small gates dominate,
	// mirroring the usage profile of synthesised logic.
	weights := make([]float64, len(comb))
	var wsum float64
	for i, k := range comb {
		weights[i] = 1.0 / k.Area()
		wsum += weights[i]
	}
	pick := func() *cell.Kind {
		r := rng.Float64() * wsum
		for i, w := range weights {
			r -= w
			if r <= 0 {
				return comb[i]
			}
		}
		return comb[len(comb)-1]
	}

	cells := make([]Cell, 0, cfg.NumCells+cfg.NumMacros)
	for i := 0; i < cfg.NumCells; i++ {
		var k *cell.Kind
		if rng.Float64() < cfg.SeqFraction {
			k = seq[rng.Intn(len(seq))]
		} else {
			k = pick()
		}
		cells = append(cells, Cell{ID: i, Name: fmt.Sprintf("u%d", i), Kind: k})
	}
	macros := lib.Macros()
	for i := 0; i < cfg.NumMacros && len(macros) > 0; i++ {
		k := macros[i%len(macros)]
		id := len(cells)
		cells = append(cells, Cell{ID: id, Name: fmt.Sprintf("m%d", i), Kind: k})
	}
	return cells, nil
}

// ReachClass describes one locality class of nets: Frac of all nets are
// drawn with sink distances exponentially distributed around MeanReach
// database units. Real netlists mix short local nets with a long tail of
// regional and global nets; the class mix shapes how many nets end up on
// high metal layers, and therefore the v-pin populations per split layer.
type ReachClass struct {
	Frac      float64
	MeanReach geom.Coord
}

// NetGenConfig controls connectivity generation.
type NetGenConfig struct {
	// NumNets is the target number of nets; generation may stop short if
	// the supply of unused pins runs out.
	NumNets int
	// FanoutWeights[i] is the relative probability of fanout i+1.
	FanoutWeights []float64
	// Classes is the locality mix; fractions should sum to roughly 1.
	Classes []ReachClass
}

// DefaultFanoutWeights matches the fanout distribution of typical gate-level
// netlists: dominated by fanout 1-2 with a short tail.
func DefaultFanoutWeights() []float64 {
	return []float64{0.52, 0.27, 0.12, 0.05, 0.02, 0.01, 0.005, 0.005}
}

// GenerateNets synthesises connectivity over already-placed cells. pos must
// return the placed origin of each cell. Sinks are sampled near the driver
// at distances drawn from the net's locality class, so the resulting
// (netlist, placement) pair behaves like the output of a wirelength-driven
// placer: connected pins are spatially correlated, which is precisely the
// structure the proximity attack exploits.
func GenerateNets(cells []Cell, pos func(int) geom.Point, die geom.Rect, cfg NetGenConfig, rng *rand.Rand) ([]Net, error) {
	if cfg.NumNets <= 0 {
		return nil, fmt.Errorf("netlist: NumNets must be positive, got %d", cfg.NumNets)
	}
	if len(cfg.FanoutWeights) == 0 {
		cfg.FanoutWeights = DefaultFanoutWeights()
	}
	if len(cfg.Classes) == 0 {
		return nil, fmt.Errorf("netlist: no reach classes")
	}

	// Free pin bookkeeping: each output pin drives at most one net and each
	// input pin is driven by at most one net. A cell's free pins are the
	// first in (out) entries of its kind's input (output) pin list, taken
	// from the end; each kind's lists are built once.
	type pinLists struct{ in, out []int }
	type freePins struct {
		kind    *pinLists
		in, out int
	}
	kinds := map[*cell.Kind]*pinLists{}
	free := make([]freePins, len(cells))
	var drivers, sinks []int // cell IDs with a free output / input pin
	for i, c := range cells {
		k := kinds[c.Kind]
		if k == nil {
			k = &pinLists{in: c.Kind.Inputs(), out: c.Kind.Outputs()}
			kinds[c.Kind] = k
		}
		free[i] = freePins{kind: k, in: len(k.in), out: len(k.out)}
		if len(k.out) > 0 {
			drivers = append(drivers, i)
		}
		if len(k.in) > 0 {
			sinks = append(sinks, i)
		}
	}

	// Spatial index of cells with free input pins, for proximity sampling.
	idx := newCellIndex(die, pos, sinks, len(cells))

	takeIn := func(cellID int) (int, bool) {
		f := &free[cellID]
		if f.in == 0 {
			return -1, false
		}
		f.in--
		if f.in == 0 {
			idx.remove(cellID)
		}
		return f.kind.in[f.in], true
	}

	fanout := func() int {
		var sum float64
		for _, w := range cfg.FanoutWeights {
			sum += w
		}
		r := rng.Float64() * sum
		for i, w := range cfg.FanoutWeights {
			r -= w
			if r <= 0 {
				return i + 1
			}
		}
		return 1
	}

	// classOf biases net reach by driver strength: strong drivers are the
	// ones synthesis assigns to long nets, so high-drive cells
	// preferentially source regional/global nets. This is the physical
	// origin of the attack's DiffArea/TotalArea features being informative
	// about whether a candidate pair's combined reach is plausible.
	var maxReach geom.Coord = 1
	for _, c := range cfg.Classes {
		if c.MeanReach > maxReach {
			maxReach = c.MeanReach
		}
	}
	classOf := func(drive int) ReachClass {
		if drive < 1 {
			drive = 1
		}
		var wsum float64
		ws := make([]float64, len(cfg.Classes))
		for i, c := range cfg.Classes {
			boost := 1 + float64(drive-1)*float64(c.MeanReach)/float64(maxReach)
			ws[i] = c.Frac * boost
			wsum += ws[i]
		}
		r := rng.Float64() * wsum
		for i, w := range ws {
			r -= w
			if r <= 0 {
				return cfg.Classes[i]
			}
		}
		return cfg.Classes[len(cfg.Classes)-1]
	}

	var nets []Net
	di := 0 // rotating cursor over drivers for fairness
	perm := rng.Perm(len(drivers))
	for len(nets) < cfg.NumNets && di < len(perm) {
		cellID := drivers[perm[di]]
		di++
		f := &free[cellID]
		if f.out == 0 {
			continue
		}
		f.out--
		outPin := f.kind.out[f.out]
		if f.out > 0 {
			// Put multi-output cells (macros) back in rotation.
			perm = append(perm, perm[di-1])
		}

		origin := pos(cellID)
		cls := classOf(cells[cellID].Kind.Drive)
		want := fanout()
		net := Net{
			ID:     len(nets),
			Name:   fmt.Sprintf("n%d", len(nets)),
			Driver: PinRef{Cell: cellID, Pin: outPin},
		}
		idx.beginNet()
		idx.exclude(cellID)
		for s := 0; s < want; s++ {
			// Manhattan-radius target point: exponential distance, random
			// direction split between x and y.
			d := geom.Coord(rng.ExpFloat64() * float64(cls.MeanReach))
			fx := rng.Float64()
			dx := geom.Coord(float64(d) * fx)
			dy := d - dx
			if rng.Intn(2) == 0 {
				dx = -dx
			}
			if rng.Intn(2) == 0 {
				dy = -dy
			}
			target := die.ClampPoint(origin.Add(geom.Pt(dx, dy)))
			sinkCell, ok := idx.nearest(target)
			if !ok {
				break // no free input pins anywhere
			}
			pin, ok := takeIn(sinkCell)
			if !ok {
				continue
			}
			idx.exclude(sinkCell)
			net.Sinks = append(net.Sinks, PinRef{Cell: sinkCell, Pin: pin})
		}
		if len(net.Sinks) == 0 {
			continue
		}
		nets = append(nets, net)
	}
	return nets, nil
}

// cellIndex is a tile-bucketed index of cells that still have free input
// pins, supporting nearest-cell queries via an expanding ring search. Each
// tile stores its cells' positions inline, a per-cell slot table makes
// removal O(1), and a per-net stamp marks the cells a query must skip.
type cellIndex struct {
	die   geom.Rect
	tile  geom.Coord
	nx    int
	ny    int
	tiles [][]tileEntry // tile -> its cells, in insertion and removal order
	slot  []tileSlot    // cell ID -> where its entry is; tile -1 when absent
	seen  []uint32      // cell ID -> stamp of the last net that excluded it
	stamp uint32        // the current net's stamp
}

// tileEntry is one indexed cell: its position, copied once, and its ID.
type tileEntry struct {
	x, y geom.Coord
	id   int32
}

// tileSlot locates a cell's entry: its tile and its position in the tile.
type tileSlot struct{ tile, i int32 }

// newCellIndex indexes the cells listed in ids, in ascending order, of a
// netlist of n cells, at the positions pos gives.
func newCellIndex(die geom.Rect, pos func(int) geom.Point, ids []int, n int) *cellIndex {
	// Aim for a few dozen cells per tile.
	tiles := n/32 + 1
	tile := die.Width()
	for nx := 1; nx*nx < tiles; nx++ {
		tile = die.Width() / geom.Coord(nx)
	}
	if tile <= 0 {
		tile = 1
	}
	ix := &cellIndex{
		die:   die,
		tile:  tile,
		nx:    int(die.Width()/tile) + 1,
		ny:    int(die.Height()/tile) + 1,
		slot:  make([]tileSlot, n),
		seen:  make([]uint32, n),
		stamp: 1,
	}
	ix.tiles = make([][]tileEntry, ix.nx*ix.ny)
	for i := range ix.slot {
		ix.slot[i].tile = -1
	}
	for _, id := range ids {
		p := pos(id)
		ti := ix.tileOf(p)
		ix.slot[id] = tileSlot{tile: int32(ti), i: int32(len(ix.tiles[ti]))}
		ix.tiles[ti] = append(ix.tiles[ti], tileEntry{x: p.X, y: p.Y, id: int32(id)})
	}
	return ix
}

func (ix *cellIndex) tileOf(p geom.Point) int {
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

// remove drops a cell from the index: the tile's last entry takes its
// place.
func (ix *cellIndex) remove(cellID int) {
	s := ix.slot[cellID]
	if s.tile < 0 {
		return
	}
	bucket := ix.tiles[s.tile]
	last := bucket[len(bucket)-1]
	bucket[s.i] = last
	ix.slot[last.id].i = s.i
	ix.tiles[s.tile] = bucket[:len(bucket)-1]
	ix.slot[cellID].tile = -1
}

// beginNet starts a new net: the cells excluded for the previous one are
// candidates again.
func (ix *cellIndex) beginNet() { ix.stamp++ }

// exclude keeps a cell out of nearest's answers until the next beginNet.
func (ix *cellIndex) exclude(cellID int) { ix.seen[cellID] = ix.stamp }

// nearest returns the cell with a free input pin closest to target,
// excluding the current net's cells; of equally close cells, the first
// visited wins. The search expands tile rings outward until a candidate
// ring yields no improvement. A tile row or tile whose distance from
// target is at least the best distance so far holds no cell that could
// improve on it, so it is skipped without changing the pick or where the
// search stops.
func (ix *cellIndex) nearest(target geom.Point) (int, bool) {
	q := ix.die.ClampPoint(target)
	tx := int((q.X - ix.die.Lo.X) / ix.tile)
	ty := int((q.Y - ix.die.Lo.Y) / ix.tile)
	best, bestD := -1, geom.Coord(1)<<60
	// Rings beyond the grid's farthest edge hold no tiles.
	maxR := max(tx, ix.nx-1-tx, ty, ix.ny-1-ty)
	for r := 0; r <= maxR; r++ {
		found := false
		for dy := -r; dy <= r; dy++ {
			y := ty + dy
			if y < 0 || y >= ix.ny {
				continue
			}
			gy := gap(y, ix.ny, ix.die.Lo.Y, ix.tile, target.Y)
			if gy >= bestD {
				continue
			}
			// Ring only: rows strictly inside it hold just its two ends.
			step := 1
			if dy > -r && dy < r {
				step = 2 * r
			}
			for dx := -r; dx <= r; dx += step {
				x := tx + dx
				if x < 0 || x >= ix.nx || gy+gap(x, ix.nx, ix.die.Lo.X, ix.tile, target.X) >= bestD {
					continue
				}
				for _, e := range ix.tiles[y*ix.nx+x] {
					if ix.seen[e.id] == ix.stamp {
						continue
					}
					d := (e.x - target.X).Abs() + (e.y - target.Y).Abs()
					if d < bestD {
						best, bestD = int(e.id), d
						found = true
					}
				}
			}
		}
		// Once a candidate exists, one extra ring suffices: any cell two
		// rings out is necessarily farther in Manhattan distance.
		if best >= 0 && !found {
			break
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// gap is a lower bound on the distance along one axis from coordinate v
// to any cell in tile t of a row or column of n tiles of the given size
// starting at lo. The first and last tiles also hold the cells clamped
// onto the die from outside it, so they are open outward.
func gap(t, n int, lo, size, v geom.Coord) geom.Coord {
	start := lo + geom.Coord(t)*size
	if t > 0 && v < start {
		return start - v
	}
	if end := start + size - 1; t < n-1 && v > end {
		return v - end
	}
	return 0
}
