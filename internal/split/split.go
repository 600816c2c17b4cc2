// Package split generates split-manufacturing challenge instances: given a
// placed-and-routed design and a split (via) layer, it computes the FEOL
// view an untrusted foundry would receive — the v-pins where nets are cut,
// each with the layout quantities observable below the split — together
// with the hidden ground-truth matching used to train and score attacks.
package split

import (
	"fmt"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/layout"
	"repro/internal/netlist"
	"repro/internal/route"
)

// VPin is a virtual pin: the via at the split layer where a cut net leaves
// the FEOL. All fields except Match are observable by the attacker.
type VPin struct {
	// ID indexes the v-pin within its challenge.
	ID int
	// Pos is the v-pin location on the split layer: (vx, vy).
	Pos geom.Point
	// PinLoc is where the v-pin connects on the placement layer: (px, py).
	// When the route fragment reaches multiple standard-cell pins, this is
	// the average of their locations (paper §III-A).
	PinLoc geom.Point
	// Wirelength is W: the routed length of the FEOL fragment hanging off
	// this v-pin.
	Wirelength geom.Coord
	// InArea is the summed area of cells reached through an input pin;
	// OutArea through an output pin. At most one of the two is non-zero in
	// this model (a fragment is either the driver side or the sink side).
	InArea, OutArea float64
	// Net and Side are ground-truth provenance, retained for analysis; the
	// attack itself must only use them via Match-based labels.
	Net  int
	Side route.Side
	// Match is the ID of the v-pin this one truly connects to above the
	// split. It is the label the attack tries to recover.
	Match int
}

// IsDriverSide reports whether the fragment ends in the net's output pin.
func (v *VPin) IsDriverSide() bool { return v.OutArea > 0 }

// Challenge is one design cut at one split layer.
type Challenge struct {
	Design     *layout.Design
	SplitLayer int
	VPins      []VPin

	pinGrid  *geom.Grid // all standard-cell pin locations (PC source)
	vpinGrid *geom.Grid // v-pin locations on the split layer (RC source)
}

// congestionRadius is the tile-window radius used for the PC and RC
// density measurements.
const congestionRadius = 1

// NewChallenge cuts the design at the given via layer (1..route.NumVia) and
// extracts all v-pins. Split layers 4, 6 and 8 are the ones studied in the
// paper, but any via layer is accepted.
func NewChallenge(d *layout.Design, splitLayer int) (*Challenge, error) {
	if splitLayer < 1 || splitLayer > route.NumVia {
		return nil, fmt.Errorf("split: via layer %d out of range 1..%d", splitLayer, route.NumVia)
	}
	c := &Challenge{Design: d, SplitLayer: splitLayer}

	nl := d.Netlist
	pl := d.Placement
	for netID := range nl.Nets {
		rt := &d.Routing.Routes[netID]
		if rt.TrunkLayer <= splitLayer {
			continue // net fully inside the FEOL; nothing is cut
		}
		net := &nl.Nets[netID]

		// V-pin positions: at the trunk-end vias when the split sits just
		// below the trunk, otherwise at the via-stack escape points.
		var posA, posB geom.Point
		if splitLayer == rt.TrunkLayer-1 {
			posA, posB = rt.TrunkA, rt.TrunkB
		} else {
			posA, posB = rt.DriverEscape, rt.SinkEscape
		}

		driverLoc := pl.PinLocation(nl, net.Driver)
		sinkPts := make([]geom.Point, len(net.Sinks))
		var inArea float64
		for i, s := range net.Sinks {
			sinkPts[i] = pl.PinLocation(nl, s)
			inArea += nl.Kind(s.Cell).Area()
		}
		outArea := nl.Kind(net.Driver.Cell).Area()

		idA := len(c.VPins)
		idB := idA + 1
		c.VPins = append(c.VPins,
			VPin{
				ID: idA, Pos: posA, PinLoc: driverLoc,
				Wirelength: rt.WirelengthBelow(splitLayer, route.DriverSide),
				OutArea:    outArea,
				Net:        netID, Side: route.DriverSide, Match: idB,
			},
			VPin{
				ID: idB, Pos: posB, PinLoc: geom.Centroid(sinkPts),
				Wirelength: rt.WirelengthBelow(splitLayer, route.SinkSide),
				InArea:     inArea,
				Net:        netID, Side: route.SinkSide, Match: idA,
			},
		)
	}
	if len(c.VPins) == 0 {
		return nil, fmt.Errorf("split: no nets cut at via layer %d in %s", splitLayer, d.Name)
	}
	c.buildGrids()
	return c, nil
}

// buildGrids prepares the congestion measurement grids.
func (c *Challenge) buildGrids() {
	die := c.Design.Die()
	tile := die.Width() / 48
	if tile <= 0 {
		tile = 1
	}
	c.pinGrid = geom.NewGrid(die, tile)
	nl := c.Design.Netlist
	pl := c.Design.Placement
	for _, cl := range nl.Cells {
		for pin := range cl.Kind.Pins {
			c.pinGrid.Add(pl.PinLocation(nl, netlist.PinRef{Cell: cl.ID, Pin: pin}))
		}
	}
	c.vpinGrid = geom.NewGrid(die, tile)
	for i := range c.VPins {
		c.vpinGrid.Add(c.VPins[i].Pos)
	}
}

// PC returns the placement congestion of v: the density of standard-cell
// pins around the placement-layer point the v-pin connects to.
func (c *Challenge) PC(v *VPin) float64 {
	return c.pinGrid.Density(v.PinLoc, congestionRadius)
}

// RC returns the routing congestion of v: the density of v-pins around v on
// the split layer.
func (c *Challenge) RC(v *VPin) float64 {
	return c.vpinGrid.Density(v.Pos, congestionRadius)
}

// LegalPair reports whether (a, b) could be the two sides of one net: two
// driver-side fragments would connect two output pins, which is
// electrically illegal and excluded from training and testing (paper
// footnotes 1 and 2).
func LegalPair(a, b *VPin) bool {
	return !(a.IsDriverSide() && b.IsDriverSide())
}

// WithNoise returns a copy of the challenge in which every v-pin's
// y-coordinate is displaced by Gaussian noise with standard deviation
// sd*dieHeight, modelling routing obfuscation (paper §III-I). The RC grid
// is rebuilt from the noised positions; ground truth is unchanged.
func (c *Challenge) WithNoise(sd float64, rng *rand.Rand) *Challenge {
	die := c.Design.Die()
	sigma := sd * float64(die.Height())
	nc := &Challenge{
		Design:     c.Design,
		SplitLayer: c.SplitLayer,
		VPins:      append([]VPin(nil), c.VPins...),
		pinGrid:    c.pinGrid, // placement layer is untouched by the noise
	}
	for i := range nc.VPins {
		y := nc.VPins[i].Pos.Y + geom.Coord(rng.NormFloat64()*sigma)
		nc.VPins[i].Pos = die.ClampPoint(geom.Pt(nc.VPins[i].Pos.X, y))
	}
	tile := die.Width() / 48
	if tile <= 0 {
		tile = 1
	}
	nc.vpinGrid = geom.NewGrid(die, tile)
	for i := range nc.VPins {
		nc.vpinGrid.Add(nc.VPins[i].Pos)
	}
	return nc
}

// Restrict returns a copy of the challenge containing only the listed
// v-pins (in the given order), re-IDed 0..len(ids)-1. A v-pin whose true
// partner is not in ids gets Match = -1, producing the degenerate
// instances (single-sided nets, singleton v-pin sets) that exercise the
// pair pipeline's edge cases. The RC grid is rebuilt from the restricted
// set; the placement grid is shared with the original.
func (c *Challenge) Restrict(ids []int) *Challenge {
	remap := make(map[int]int, len(ids))
	for newID, oldID := range ids {
		remap[oldID] = newID
	}
	nc := &Challenge{
		Design:     c.Design,
		SplitLayer: c.SplitLayer,
		VPins:      make([]VPin, len(ids)),
		pinGrid:    c.pinGrid,
	}
	for newID, oldID := range ids {
		v := c.VPins[oldID]
		v.ID = newID
		if m, ok := remap[v.Match]; ok {
			v.Match = m
		} else {
			v.Match = -1
		}
		nc.VPins[newID] = v
	}
	die := c.Design.Die()
	tile := die.Width() / 48
	if tile <= 0 {
		tile = 1
	}
	nc.vpinGrid = geom.NewGrid(die, tile)
	for i := range nc.VPins {
		nc.vpinGrid.Add(nc.VPins[i].Pos)
	}
	return nc
}

// CutNets returns the number of nets cut at the split layer.
func (c *Challenge) CutNets() int { return len(c.VPins) / 2 }

// Stats summarises a challenge for reporting.
type Stats struct {
	Design     string
	SplitLayer int
	VPins      int
	CutNets    int
	// MeanMatchDist is the mean ManhattanVpin distance of true matches.
	MeanMatchDist float64
}

// Summary computes challenge statistics.
func (c *Challenge) Summary() Stats {
	var sum float64
	n := 0
	for i := range c.VPins {
		v := &c.VPins[i]
		if v.Side != route.DriverSide {
			continue
		}
		sum += float64(v.Pos.Manhattan(c.VPins[v.Match].Pos))
		n++
	}
	s := Stats{
		Design:     c.Design.Name,
		SplitLayer: c.SplitLayer,
		VPins:      len(c.VPins),
		CutNets:    c.CutNets(),
	}
	if n > 0 {
		s.MeanMatchDist = sum / float64(n)
	}
	return s
}
