package route

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

// Config controls the router.
type Config struct {
	// LayerFracs[m] is the fraction of nets whose trunk is assigned to
	// metal layer m (index 0 and 1 unused; valid trunk layers are 2..9).
	// Assignment is by net length rank: the longest nets get the highest
	// layers, as routers do to exploit the wide fast top-layer wires.
	// Fractions are normalised internally.
	LayerFracs [NumMetal + 1]float64
	// CongestionTile is the tile size of the demand grid used for
	// congestion-driven promotion and escape jitter. Zero selects a
	// default of 1/24 of the die width.
	CongestionTile geom.Coord
	// PromoteProb is the probability that a net in a congested tile is
	// promoted one trunk layer up, spreading demand the way a
	// congestion-driven router would.
	PromoteProb float64
	// EscapeJitter scales the congestion-dependent displacement between a
	// pin and its via-stack escape point. Higher local congestion pushes
	// escape stacks farther from their pins, which is the mechanism that
	// makes attacks harder in congested regions (paper §II-B).
	EscapeJitter float64
	// DetourProb is the probability that a trunk takes a detour track
	// rather than the straight track, modelling rip-up-and-reroute under
	// congestion.
	DetourProb float64
}

// DefaultConfig returns router settings producing layer populations similar
// in shape to the paper's benchmarks: most nets local (low trunks), a
// minority promoted to the top layers.
func DefaultConfig() Config {
	var f [NumMetal + 1]float64
	f[2], f[3], f[4] = 0.30, 0.22, 0.16
	f[5], f[6] = 0.12, 0.08
	f[7], f[8] = 0.06, 0.04
	f[9] = 0.02
	return Config{
		LayerFracs:   f,
		PromoteProb:  0.25,
		EscapeJitter: 1.0,
		DetourProb:   0.3,
	}
}

// Routing is the routed view of a design: one Route per net plus the demand
// grid used during construction (retained for congestion queries).
type Routing struct {
	Die    geom.Rect
	Routes []Route
	Demand *geom.Grid
	// Cfg is the configuration the routing was built with, retained so
	// obfuscation transforms can re-route nets consistently.
	Cfg Config
}

// BuildRouting assigns trunk layers to every net of nl and synthesises their
// route geometry. The result is deterministic for a fixed rng state.
func BuildRouting(nl *netlist.Netlist, pl *place.Placement, cfg Config, rng *rand.Rand) (*Routing, error) {
	if len(nl.Nets) == 0 {
		return nil, fmt.Errorf("route: netlist has no nets")
	}
	die := pl.Die
	tile := cfg.CongestionTile
	if tile <= 0 {
		tile = die.Width() / 24
		if tile <= 0 {
			tile = 1
		}
	}

	// Demand grid: each net deposits its bounding-box centre; tiles crossed
	// by many nets are congested.
	demand := geom.NewGrid(die, tile)
	bboxes := make([]geom.Rect, len(nl.Nets))
	for i := range nl.Nets {
		bboxes[i] = pinBox(nl, pl, &nl.Nets[i])
		demand.Add(bboxes[i].Center())
	}
	meanDemand := float64(demand.Total()) / float64(numTiles(demand))

	layers := assignLayers(bboxes, cfg, demand, meanDemand, rng)

	r := &Routing{Die: die, Routes: make([]Route, len(nl.Nets)), Demand: demand, Cfg: cfg}
	for i := range nl.Nets {
		r.Routes[i] = routeNet(nl, pl, &nl.Nets[i], layers[i], cfg, demand, meanDemand, rng)
	}
	return r, nil
}

// Reroute returns a copy of the routing in which the selected nets are
// re-routed: assign maps net IDs to their new trunk layers (2..NumMetal),
// and cfg overrides the router personality (escape jitter, detours) for
// the re-routed nets. Unselected nets keep their original routes. This is
// the primitive behind the obfuscation transforms: lifting nets to higher
// layers and perturbing routes are both re-routing operations. Nets are
// re-routed in ascending ID order, so each draws the same numbers from rng
// on every call. A routing without its congestion grid (one read back by
// layout.Load) cannot be re-routed and yields an error.
func (r *Routing) Reroute(nl *netlist.Netlist, pl *place.Placement, assign map[int]int, cfg Config, rng *rand.Rand) (*Routing, error) {
	if r.Demand == nil {
		return nil, errors.New("route: cannot re-route without the routing's congestion grid (Demand is nil, as in a loaded design)")
	}
	out := &Routing{
		Die:    r.Die,
		Routes: append([]Route(nil), r.Routes...),
		Demand: r.Demand,
		Cfg:    r.Cfg,
	}
	meanDemand := float64(r.Demand.Total()) / float64(numTiles(r.Demand))
	ids := make([]int, 0, len(assign))
	for netID := range assign {
		ids = append(ids, netID)
	}
	sort.Ints(ids)
	for _, netID := range ids {
		trunk := assign[netID]
		if netID < 0 || netID >= len(out.Routes) {
			return nil, fmt.Errorf("route: reroute of unknown net %d", netID)
		}
		if trunk < 2 || trunk > NumMetal {
			return nil, fmt.Errorf("route: reroute of net %d to invalid layer %d", netID, trunk)
		}
		out.Routes[netID] = routeNet(nl, pl, &nl.Nets[netID], trunk, cfg, r.Demand, meanDemand, rng)
	}
	return out, nil
}

func numTiles(g *geom.Grid) int {
	nx, ny := g.Dims()
	return nx * ny
}

// pinBox returns the bounding box of a net's pins.
func pinBox(nl *netlist.Netlist, pl *place.Placement, n *netlist.Net) geom.Rect {
	p := pl.PinLocation(nl, n.Driver)
	box := geom.Rect{Lo: p, Hi: p}
	for _, ref := range n.Sinks {
		p = pl.PinLocation(nl, ref)
		box.Lo.X, box.Lo.Y = min(box.Lo.X, p.X), min(box.Lo.Y, p.Y)
		box.Hi.X, box.Hi.Y = max(box.Hi.X, p.X), max(box.Hi.Y, p.Y)
	}
	return box
}

// assignLayers gives each net a trunk layer: nets are ranked by HPWL and the
// configured fractions are applied from the top layer down, so the longest
// nets use the widest, highest wires. Congestion then promotes some nets.
func assignLayers(bboxes []geom.Rect, cfg Config, demand *geom.Grid, meanDemand float64, rng *rand.Rand) []int {
	n := len(bboxes)
	hpwl := make([]geom.Coord, n)
	order := make([]int, n)
	for i := range order {
		hpwl[i] = bboxes[i].HalfPerimeter()
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := hpwl[order[a]], hpwl[order[b]]
		if ha != hb {
			return ha > hb
		}
		return order[a] < order[b]
	})

	var total float64
	for m := 2; m <= NumMetal; m++ {
		total += cfg.LayerFracs[m]
	}
	if total <= 0 {
		total = 1
	}

	layers := make([]int, n)
	idx := 0
	for m := NumMetal; m >= 2; m-- {
		quota := int(float64(n) * cfg.LayerFracs[m] / total)
		if m == 2 {
			quota = n - idx // absorb rounding remainder in the bottom pair
		}
		for k := 0; k < quota && idx < n; k++ {
			layers[order[idx]] = m
			idx++
		}
	}
	for ; idx < n; idx++ {
		layers[order[idx]] = 2
	}

	// Congestion-driven promotion: nets in over-subscribed tiles move up a
	// layer with probability PromoteProb, as a congestion-aware router
	// would spill demand upward.
	for i := range layers {
		if layers[i] >= NumMetal {
			continue
		}
		d := demand.Density(bboxes[i].Center(), 0)
		if d > 1.5*meanDemand && rng.Float64() < cfg.PromoteProb {
			layers[i]++
		}
	}
	return layers
}

// congestionAt returns a >=0 congestion factor at p: 0 at or below average
// demand, growing linearly above it.
func congestionAt(demand *geom.Grid, meanDemand float64, p geom.Point) float64 {
	d := demand.Density(p, 1)
	if meanDemand <= 0 {
		return 0
	}
	f := d/meanDemand - 1
	if f < 0 {
		return 0
	}
	return f
}

// routeNet synthesises the geometry of one net:
//
//	driver pin --(M1/M2 local)-- driver escape ==(via stack)== feeder on
//	M(T-1) -- trunk on MT -- feeder on M(T-1) ==(via stack)== sink escape
//	--(M1/M2 local)-- sink pins
//
// Nets with trunk layer 2 are routed as plain M1/M2 L-shapes.
func routeNet(nl *netlist.Netlist, pl *place.Placement, n *netlist.Net,
	trunk int, cfg Config, demand *geom.Grid, meanDemand float64, rng *rand.Rand) Route {

	driver := pl.PinLocation(nl, n.Driver)
	sinkPts := make([]geom.Point, len(n.Sinks))
	for i, s := range n.Sinks {
		sinkPts[i] = pl.PinLocation(nl, s)
	}
	sinkCenter := geom.Centroid(sinkPts)

	rt := Route{Net: n.ID, TrunkLayer: trunk}

	if trunk <= 2 {
		// Each L-route adds at most two segments and one via.
		rt.Segments = make([]Segment, 0, 2*len(sinkPts))
		rt.Vias = make([]Via, 0, len(sinkPts))
		rt.TrunkLayer = 2
		// Pure local routing: L-shapes from the driver to every sink on
		// M1 (horizontal) and M2 (vertical). No escape structure.
		rt.DriverEscape, rt.SinkEscape = driver, sinkCenter
		rt.TrunkA, rt.TrunkB = driver, sinkCenter
		for _, sp := range sinkPts {
			addLRoute(&rt, driver, sp, 1, 2, DriverSide)
		}
		return rt
	}

	// Escape points: pins displaced by congestion-scaled jitter, snapped to
	// mid-level track grids (x to the M4 grid, y to the M3 grid). The via
	// stack to the trunk stands at the escape point.
	escape := func(p geom.Point, side Side) geom.Point {
		cong := congestionAt(demand, meanDemand, p)
		sigma := cfg.EscapeJitter * float64(TrackPitch(2)) * (1 + 2*cong)
		e := geom.Pt(
			p.X+geom.Coord(rng.NormFloat64()*sigma),
			p.Y+geom.Coord(rng.NormFloat64()*sigma),
		)
		e = demand.Bounds().ClampPoint(e)
		return geom.Pt(Snap(e.X, TrackPitch(4)), Snap(e.Y, TrackPitch(3)))
	}
	eD := escape(driver, DriverSide)
	eS := escape(sinkCenter, SinkSide)

	// At most: an L-route (two segments, one via) per pin, two feeders and
	// the trunk, a via per stack layer on either side, two trunk-end vias.
	rt.Segments = make([]Segment, 0, 2*(1+len(sinkPts))+3)
	rt.Vias = make([]Via, 0, 1+len(sinkPts)+2*(trunk-3)+2)

	// Local routing below the stacks.
	addLRoute(&rt, driver, eD, 1, 2, DriverSide)
	for _, sp := range sinkPts {
		addLRoute(&rt, eS, sp, 1, 2, SinkSide)
	}

	// Via stacks from M2 up to the feeder layer M(trunk-1).
	for v := 2; v <= trunk-2; v++ {
		rt.Vias = append(rt.Vias, Via{Layer: v, At: eD, Side: DriverSide})
		rt.Vias = append(rt.Vias, Via{Layer: v, At: eS, Side: SinkSide})
	}

	// Trunk track selection. For a horizontal trunk the track is a y
	// coordinate snapped to the MT pitch, chosen near one endpoint or the
	// midpoint, with congestion-driven detours.
	pitch := TrackPitch(trunk)
	feeder := trunk - 1
	detour := func(at geom.Point) geom.Coord {
		if rng.Float64() >= cfg.DetourProb {
			return 0
		}
		cong := congestionAt(demand, meanDemand, at)
		steps := 1 + int(cong*3) + rng.Intn(2)
		d := geom.Coord(steps) * pitch
		if rng.Intn(2) == 0 {
			return -d
		}
		return d
	}

	if LayerDir(trunk) == Horizontal {
		var yStar geom.Coord
		switch rng.Intn(3) {
		case 0:
			yStar = eD.Y
		case 1:
			yStar = eS.Y
		default:
			yStar = (eD.Y + eS.Y) / 2
		}
		yStar = Snap(yStar+detour(geom.Pt((eD.X+eS.X)/2, yStar)), pitch)
		yStar = clampCoord(yStar, demand.Bounds().Lo.Y, demand.Bounds().Hi.Y)

		rt.TrunkA = geom.Pt(eD.X, yStar)
		rt.TrunkB = geom.Pt(eS.X, yStar)
		addSeg(&rt, feeder, eD, rt.TrunkA, DriverSide)
		addSeg(&rt, feeder, rt.TrunkB, eS, SinkSide)
		addSeg(&rt, trunk, rt.TrunkA, rt.TrunkB, DriverSide)
	} else {
		var xStar geom.Coord
		switch rng.Intn(3) {
		case 0:
			xStar = eD.X
		case 1:
			xStar = eS.X
		default:
			xStar = (eD.X + eS.X) / 2
		}
		xStar = Snap(xStar+detour(geom.Pt(xStar, (eD.Y+eS.Y)/2)), pitch)
		xStar = clampCoord(xStar, demand.Bounds().Lo.X, demand.Bounds().Hi.X)

		rt.TrunkA = geom.Pt(xStar, eD.Y)
		rt.TrunkB = geom.Pt(xStar, eS.Y)
		addSeg(&rt, feeder, eD, rt.TrunkA, DriverSide)
		addSeg(&rt, feeder, rt.TrunkB, eS, SinkSide)
		addSeg(&rt, trunk, rt.TrunkA, rt.TrunkB, DriverSide)
	}

	// Trunk-end vias on via layer trunk-1.
	rt.Vias = append(rt.Vias,
		Via{Layer: trunk - 1, At: rt.TrunkA, Side: DriverSide},
		Via{Layer: trunk - 1, At: rt.TrunkB, Side: SinkSide},
	)

	rt.DriverEscape, rt.SinkEscape = eD, eS
	return rt
}

// addLRoute adds an L-shaped connection from a to b using hLayer for the
// horizontal leg and vLayer for the vertical leg.
func addLRoute(rt *Route, a, b geom.Point, hLayer, vLayer int, side Side) {
	corner := geom.Pt(b.X, a.Y)
	addSeg(rt, hLayer, a, corner, side)
	addSeg(rt, vLayer, corner, b, side)
	if a.Y != b.Y && a.X != b.X {
		rt.Vias = append(rt.Vias, Via{Layer: 1, At: corner, Side: side})
	}
}

// addSeg appends a normalised segment, dropping zero-length wires.
func addSeg(rt *Route, layer int, a, b geom.Point, side Side) {
	if a == b {
		return
	}
	if a.X > b.X || a.Y > b.Y {
		a, b = b, a
	}
	rt.Segments = append(rt.Segments, Segment{Layer: layer, A: a, B: b, Side: side})
}

func clampCoord(v, lo, hi geom.Coord) geom.Coord {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Validate checks every route in the routing.
func (r *Routing) Validate() error {
	for i := range r.Routes {
		if err := r.Routes[i].Validate(); err != nil {
			return err
		}
	}
	return nil
}

// LayerPopulation returns how many nets have each trunk layer, indexed by
// metal layer (entries 0 and 1 are always zero).
func (r *Routing) LayerPopulation() [NumMetal + 1]int {
	var pop [NumMetal + 1]int
	for i := range r.Routes {
		pop[r.Routes[i].TrunkLayer]++
	}
	return pop
}
