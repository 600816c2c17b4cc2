// Package route implements the global-routing substrate: a 9-metal-layer
// fabric with alternating preferred directions and a 4x wire-width spread,
// length- and congestion-driven trunk-layer assignment, and the synthesis of
// per-net routes (escape, via stacks, feeders, trunks) whose geometry the
// split-manufacturing attack later observes.
package route

import (
	"fmt"

	"repro/internal/geom"
)

// NumMetal is the number of routing metal layers (M1..M9). There are
// NumMetal-1 via layers; via layer v connects metal v and metal v+1, and a
// "split layer" in the attack is one of these via layers.
const NumMetal = 9

// NumVia is the number of via layers.
const NumVia = NumMetal - 1

// Dir is a routing direction.
type Dir int

const (
	// Horizontal wires run along x.
	Horizontal Dir = iota
	// Vertical wires run along y.
	Vertical
)

// String implements fmt.Stringer.
func (d Dir) String() string {
	if d == Horizontal {
		return "horizontal"
	}
	return "vertical"
}

// LayerDir returns the preferred routing direction of metal layer m
// (1-based). Odd layers are horizontal, even layers vertical, so the top
// layer M9 is horizontal — which is why, at split layer 8, truly matching
// v-pin pairs always have DiffVpinY = 0 (paper §III-G).
func LayerDir(m int) Dir {
	if m%2 == 1 {
		return Horizontal
	}
	return Vertical
}

// wireWidths[m-1] is the wire width of metal m in database units. The top
// layer is 4x the bottom layer, the spread the paper calls out as critical
// for realistic congestion distribution across layers.
var wireWidths = [NumMetal]geom.Coord{40, 40, 56, 56, 80, 80, 112, 112, 160}

// WireWidth returns the wire width of metal layer m (1-based).
func WireWidth(m int) geom.Coord { return wireWidths[m-1] }

// TrackPitch returns the routing track pitch of metal layer m: wires land on
// a track grid with this spacing. Track quantisation is what makes distinct
// nets share exact coordinates on a layer — the reason a zero DiffVpinX or
// DiffVpinY is a strong but not perfect match signal.
func TrackPitch(m int) geom.Coord { return 2 * wireWidths[m-1] }

// Snap rounds v to the nearest multiple of pitch (ties round up).
func Snap(v, pitch geom.Coord) geom.Coord {
	if pitch <= 0 {
		return v
	}
	half := pitch / 2
	if v >= 0 {
		return ((v + half) / pitch) * pitch
	}
	return -(((-v + half) / pitch) * pitch)
}

// Side labels which electrical side of a cut net a geometric object belongs
// to. The attack needs this to attribute below-split wirelength and cell
// areas to the right v-pin.
type Side int

const (
	// DriverSide geometry connects to the net's driving output pin.
	DriverSide Side = iota
	// SinkSide geometry connects to the net's sink input pins.
	SinkSide
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == DriverSide {
		return "driver"
	}
	return "sink"
}

// Segment is an axis-aligned wire on a metal layer. A and B are ordered so
// that A.X <= B.X and A.Y <= B.Y.
type Segment struct {
	Layer int
	A, B  geom.Point
	Side  Side
}

// Len returns the wirelength of the segment.
func (s Segment) Len() geom.Coord { return s.A.Manhattan(s.B) }

// Dir returns the direction of the segment; zero-length segments report the
// preferred direction of their layer.
func (s Segment) Dir() Dir {
	if s.A.Y == s.B.Y && s.A.X != s.B.X {
		return Horizontal
	}
	if s.A.X == s.B.X && s.A.Y != s.B.Y {
		return Vertical
	}
	return LayerDir(s.Layer)
}

// Via is an inter-layer connection at a point. Layer is the via layer
// (1-based): via v connects metal v and metal v+1.
type Via struct {
	Layer int
	At    geom.Point
	Side  Side
}

// Route is the full geometry of one routed net.
type Route struct {
	Net int
	// TrunkLayer is the highest metal layer the net uses. Nets with
	// TrunkLayer <= split are invisible to the attack (fully in FEOL);
	// nets with TrunkLayer > split are cut and produce two v-pins.
	TrunkLayer int
	Segments   []Segment
	Vias       []Via
	// DriverEscape and SinkEscape are the via-stack locations: where the
	// driver-side and sink-side geometry leaves the low layers and climbs
	// toward the trunk. For splits below TrunkLayer-1 these are the v-pin
	// locations.
	DriverEscape, SinkEscape geom.Point
	// TrunkA and TrunkB are the trunk segment endpoints (driver side first).
	// For a split at via layer TrunkLayer-1 these are the v-pin locations.
	TrunkA, TrunkB geom.Point
}

// WirelengthBelow returns the total wirelength of side geometry on metal
// layers <= maxLayer. This is the W feature of a v-pin: the length of the
// route fragment visible to the attacker below the split.
func (r *Route) WirelengthBelow(maxLayer int, side Side) geom.Coord {
	var total geom.Coord
	for _, s := range r.Segments {
		if s.Layer <= maxLayer && s.Side == side {
			total += s.Len()
		}
	}
	return total
}

// Wirelength returns the net's total routed wirelength.
func (r *Route) Wirelength() geom.Coord {
	var total geom.Coord
	for _, s := range r.Segments {
		total += s.Len()
	}
	return total
}

// Validate checks geometric invariants of the route: segments axis-aligned
// and normalised, layers in range, a trunk layer in 2..NumMetal consistent
// with the highest segment, and vias within the via-layer range.
func (r *Route) Validate() error {
	if r.TrunkLayer < 2 || r.TrunkLayer > NumMetal {
		return fmt.Errorf("route %d: trunk on invalid layer %d", r.Net, r.TrunkLayer)
	}
	maxSeen := 0
	for i, s := range r.Segments {
		if s.Layer < 1 || s.Layer > NumMetal {
			return fmt.Errorf("route %d: segment %d on invalid layer %d", r.Net, i, s.Layer)
		}
		if s.A.X != s.B.X && s.A.Y != s.B.Y {
			return fmt.Errorf("route %d: segment %d not axis-aligned: %v-%v", r.Net, i, s.A, s.B)
		}
		if s.A.X > s.B.X || s.A.Y > s.B.Y {
			return fmt.Errorf("route %d: segment %d not normalised: %v-%v", r.Net, i, s.A, s.B)
		}
		if s.Layer > maxSeen {
			maxSeen = s.Layer
		}
	}
	if maxSeen > r.TrunkLayer {
		return fmt.Errorf("route %d: segment on layer %d above trunk layer %d", r.Net, maxSeen, r.TrunkLayer)
	}
	for i, v := range r.Vias {
		if v.Layer < 1 || v.Layer > NumVia {
			return fmt.Errorf("route %d: via %d on invalid via layer %d", r.Net, i, v.Layer)
		}
		if v.Layer >= r.TrunkLayer {
			return fmt.Errorf("route %d: via %d on via layer %d but trunk is metal %d", r.Net, i, v.Layer, r.TrunkLayer)
		}
	}
	return nil
}
