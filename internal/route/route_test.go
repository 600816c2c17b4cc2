package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
)

func TestLayerDirAlternates(t *testing.T) {
	for m := 1; m <= NumMetal; m++ {
		want := Horizontal
		if m%2 == 0 {
			want = Vertical
		}
		if got := LayerDir(m); got != want {
			t.Errorf("LayerDir(%d) = %v, want %v", m, got, want)
		}
	}
	if LayerDir(NumMetal) != Horizontal {
		t.Error("top layer must be horizontal (paper relies on single-direction M9)")
	}
}

func TestWireWidthSpread(t *testing.T) {
	if WireWidth(NumMetal) != 4*WireWidth(1) {
		t.Errorf("top/bottom wire width ratio = %d/%d, want 4x",
			WireWidth(NumMetal), WireWidth(1))
	}
	for m := 1; m < NumMetal; m++ {
		if WireWidth(m+1) < WireWidth(m) {
			t.Errorf("wire width must be non-decreasing: M%d=%d > M%d=%d",
				m, WireWidth(m), m+1, WireWidth(m+1))
		}
	}
}

func TestSnap(t *testing.T) {
	cases := []struct{ v, pitch, want geom.Coord }{
		{0, 100, 0},
		{49, 100, 0},
		{50, 100, 100},
		{149, 100, 100},
		{-49, 100, 0},
		{-51, 100, -100},
		{7, 0, 7}, // degenerate pitch passes through
	}
	for _, c := range cases {
		if got := Snap(c.v, c.pitch); got != c.want {
			t.Errorf("Snap(%d, %d) = %d, want %d", c.v, c.pitch, got, c.want)
		}
	}
}

func TestSnapProperty(t *testing.T) {
	f := func(v int32) bool {
		s := Snap(geom.Coord(v), 320)
		return s%320 == 0 && (geom.Coord(v)-s).Abs() <= 160
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildTestDesign places and routes a small design for routing tests.
func buildTestDesign(t *testing.T, seed int64, nCells, nNets int) (*netlist.Netlist, *place.Placement, *Routing) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	lib := cell.DefaultLibrary()
	cells, err := netlist.GenerateCells(lib, netlist.CellMixConfig{NumCells: nCells, NumMacros: 2, SeqFraction: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nl := &netlist.Netlist{Lib: lib, Cells: cells}
	die := geom.R(0, 0, 40000, 40000)
	pl, err := place.Place(nl, place.Config{Die: die, Clusters: 3, ClusterTightness: 0.5, UtilisationTarget: 0.9}, rng)
	if err != nil {
		t.Fatal(err)
	}
	pos := func(id int) geom.Point { return pl.Origin(id) }
	nets, err := netlist.GenerateNets(cells, pos, die, netlist.NetGenConfig{
		NumNets: nNets,
		Classes: []netlist.ReachClass{
			{Frac: 0.6, MeanReach: 1200},
			{Frac: 0.3, MeanReach: 5000},
			{Frac: 0.1, MeanReach: 15000},
		},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nl.Nets = nets
	r, err := BuildRouting(nl, pl, DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	return nl, pl, r
}

func TestBuildRoutingValid(t *testing.T) {
	_, _, r := buildTestDesign(t, 1, 1000, 800)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentsFollowLayerDirections(t *testing.T) {
	_, _, r := buildTestDesign(t, 2, 800, 600)
	for _, rt := range r.Routes {
		for _, s := range rt.Segments {
			if s.Len() == 0 {
				t.Fatalf("net %d: zero-length segment stored", rt.Net)
			}
			if s.Dir() != LayerDir(s.Layer) {
				t.Fatalf("net %d: %v segment on %v layer M%d",
					rt.Net, s.Dir(), LayerDir(s.Layer), s.Layer)
			}
		}
	}
}

func TestTrunkLayerPopulationShape(t *testing.T) {
	_, _, r := buildTestDesign(t, 3, 2000, 1500)
	pop := r.LayerPopulation()
	total := 0
	for _, c := range pop {
		total += c
	}
	if total != len(r.Routes) {
		t.Fatalf("population sums to %d, want %d", total, len(r.Routes))
	}
	// Lower layers must hold more nets than the top layer.
	if pop[2] <= pop[9] {
		t.Errorf("layer population not bottom-heavy: M2=%d, M9=%d", pop[2], pop[9])
	}
	if pop[9] == 0 {
		t.Error("no nets on the top layer; top-layer experiments would be empty")
	}
}

func TestLongNetsGetHighLayers(t *testing.T) {
	nl, pl, r := buildTestDesign(t, 4, 2000, 1500)
	var lowLens, highLens []float64
	for i := range nl.Nets {
		h := float64(pinBox(nl, pl, &nl.Nets[i]).HalfPerimeter())
		if r.Routes[i].TrunkLayer >= 8 {
			highLens = append(highLens, h)
		} else if r.Routes[i].TrunkLayer <= 3 {
			lowLens = append(lowLens, h)
		}
	}
	if len(highLens) == 0 || len(lowLens) == 0 {
		t.Skip("degenerate layer assignment")
	}
	if mean(highLens) < 2*mean(lowLens) {
		t.Errorf("high-layer nets (mean HPWL %.0f) not clearly longer than low-layer nets (%.0f)",
			mean(highLens), mean(lowLens))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestTrunkEndpointsOnTrack(t *testing.T) {
	_, _, r := buildTestDesign(t, 5, 800, 600)
	for _, rt := range r.Routes {
		if rt.TrunkLayer <= 2 {
			continue
		}
		pitch := TrackPitch(rt.TrunkLayer)
		if LayerDir(rt.TrunkLayer) == Horizontal {
			if rt.TrunkA.Y != rt.TrunkB.Y {
				t.Fatalf("net %d: horizontal trunk endpoints differ in y", rt.Net)
			}
			if rt.TrunkA.Y%pitch != 0 && rt.TrunkA.Y != r.Die.Hi.Y && rt.TrunkA.Y != r.Die.Lo.Y {
				t.Fatalf("net %d: trunk y=%d not on M%d track pitch %d",
					rt.Net, rt.TrunkA.Y, rt.TrunkLayer, pitch)
			}
		} else {
			if rt.TrunkA.X != rt.TrunkB.X {
				t.Fatalf("net %d: vertical trunk endpoints differ in x", rt.Net)
			}
			if rt.TrunkA.X%pitch != 0 && rt.TrunkA.X != r.Die.Hi.X && rt.TrunkA.X != r.Die.Lo.X {
				t.Fatalf("net %d: trunk x=%d not on M%d track pitch %d",
					rt.Net, rt.TrunkA.X, rt.TrunkLayer, pitch)
			}
		}
	}
}

func TestStackViasComplete(t *testing.T) {
	_, _, r := buildTestDesign(t, 6, 800, 600)
	for _, rt := range r.Routes {
		if rt.TrunkLayer <= 2 {
			continue
		}
		// Each side must have vias on every via layer 2..trunk-2 at the
		// escape point, plus the trunk-end via at trunk-1.
		for _, side := range []Side{DriverSide, SinkSide} {
			at := rt.DriverEscape
			end := rt.TrunkA
			if side == SinkSide {
				at, end = rt.SinkEscape, rt.TrunkB
			}
			seen := map[int]bool{}
			for _, v := range rt.Vias {
				if v.Side != side {
					continue
				}
				if v.Layer >= 2 && v.Layer <= rt.TrunkLayer-2 && v.At == at {
					seen[v.Layer] = true
				}
				if v.Layer == rt.TrunkLayer-1 && v.At == end {
					seen[v.Layer] = true
				}
			}
			for l := 2; l <= rt.TrunkLayer-1; l++ {
				if !seen[l] {
					t.Fatalf("net %d side %v: missing via on via layer %d", rt.Net, side, l)
				}
			}
		}
	}
}

func TestWirelengthBelowMonotonic(t *testing.T) {
	_, _, r := buildTestDesign(t, 7, 500, 400)
	for _, rt := range r.Routes {
		prev := geom.Coord(-1)
		for m := 1; m <= NumMetal; m++ {
			w := rt.WirelengthBelow(m, DriverSide) + rt.WirelengthBelow(m, SinkSide)
			if w < prev {
				t.Fatalf("net %d: wirelength below M%d decreased", rt.Net, m)
			}
			prev = w
		}
		if got := rt.WirelengthBelow(NumMetal, DriverSide) + rt.WirelengthBelow(NumMetal, SinkSide); got != rt.Wirelength() {
			t.Fatalf("net %d: side wirelengths %d do not sum to total %d", rt.Net, got, rt.Wirelength())
		}
	}
}

func TestRoutingDeterministicWithSeed(t *testing.T) {
	_, _, a := buildTestDesign(t, 8, 400, 300)
	_, _, b := buildTestDesign(t, 8, 400, 300)
	if len(a.Routes) != len(b.Routes) {
		t.Fatal("route counts differ between identical-seed runs")
	}
	for i := range a.Routes {
		if a.Routes[i].TrunkLayer != b.Routes[i].TrunkLayer ||
			a.Routes[i].TrunkA != b.Routes[i].TrunkA ||
			a.Routes[i].DriverEscape != b.Routes[i].DriverEscape {
			t.Fatalf("route %d differs between identical-seed runs", i)
		}
	}
}

func TestBuildRoutingRejectsEmptyNetlist(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lib := cell.DefaultLibrary()
	cells, err := netlist.GenerateCells(lib, netlist.CellMixConfig{NumCells: 10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	nl := &netlist.Netlist{Lib: lib, Cells: cells}
	pl, err := place.Place(nl, place.Config{Die: geom.R(0, 0, 10000, 10000)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildRouting(nl, pl, DefaultConfig(), rng); err == nil {
		t.Error("want error for empty netlist")
	}
}

func TestRouteValidateCatchesBadGeometry(t *testing.T) {
	good := Route{Net: 0, TrunkLayer: 5, Segments: []Segment{
		{Layer: 5, A: geom.Pt(0, 0), B: geom.Pt(10, 0)},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good route rejected: %v", err)
	}

	diag := Route{Net: 0, TrunkLayer: 5, Segments: []Segment{
		{Layer: 5, A: geom.Pt(0, 0), B: geom.Pt(10, 10)},
	}}
	if diag.Validate() == nil {
		t.Error("diagonal segment not caught")
	}

	badLayer := Route{Net: 0, TrunkLayer: 5, Segments: []Segment{
		{Layer: 12, A: geom.Pt(0, 0), B: geom.Pt(10, 0)},
	}}
	if badLayer.Validate() == nil {
		t.Error("out-of-range layer not caught")
	}

	aboveTrunk := Route{Net: 0, TrunkLayer: 3, Segments: []Segment{
		{Layer: 5, A: geom.Pt(0, 0), B: geom.Pt(10, 0)},
	}}
	if aboveTrunk.Validate() == nil {
		t.Error("segment above trunk not caught")
	}

	badVia := Route{Net: 0, TrunkLayer: 5, Vias: []Via{{Layer: 8}}}
	if badVia.Validate() == nil {
		t.Error("via at/above trunk not caught")
	}

	unnormalised := Route{Net: 0, TrunkLayer: 5, Segments: []Segment{
		{Layer: 5, A: geom.Pt(10, 0), B: geom.Pt(0, 0)},
	}}
	if unnormalised.Validate() == nil {
		t.Error("unnormalised segment not caught")
	}
}

func TestEscapePointsNearPins(t *testing.T) {
	nl, pl, r := buildTestDesign(t, 10, 800, 600)
	var worst geom.Coord
	for i := range nl.Nets {
		rt := &r.Routes[i]
		if rt.TrunkLayer <= 2 {
			continue
		}
		d := pl.PinLocation(nl, nl.Nets[i].Driver).Manhattan(rt.DriverEscape)
		if d > worst {
			worst = d
		}
	}
	// Escape jitter is congestion-scaled but should stay within a few
	// thousand DBU on a 40k die.
	if worst > 5000 {
		t.Errorf("worst escape displacement %d too large", worst)
	}
}

func TestRerouteSelective(t *testing.T) {
	nl, pl, r := buildTestDesign(t, 30, 400, 300)
	rng := rand.New(rand.NewSource(1))
	// Reroute net 0 to the top layer; all other routes must be untouched.
	assign := map[int]int{0: NumMetal}
	nr, err := r.Reroute(nl, pl, assign, r.Cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if nr.Routes[0].TrunkLayer != NumMetal {
		t.Errorf("net 0 trunk = %d, want %d", nr.Routes[0].TrunkLayer, NumMetal)
	}
	for i := 1; i < len(nr.Routes); i++ {
		if nr.Routes[i].TrunkA != r.Routes[i].TrunkA {
			t.Fatalf("unselected net %d changed", i)
		}
	}
	if err := nr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if r.Routes[0].TrunkLayer == NumMetal && nr.Routes[0].TrunkA == r.Routes[0].TrunkA {
		t.Log("net 0 already on top layer; weak test")
	}
}

func TestRerouteRejectsBadInput(t *testing.T) {
	nl, pl, r := buildTestDesign(t, 31, 100, 80)
	rng := rand.New(rand.NewSource(2))
	if _, err := r.Reroute(nl, pl, map[int]int{-1: 5}, r.Cfg, rng); err == nil {
		t.Error("negative net ID accepted")
	}
	if _, err := r.Reroute(nl, pl, map[int]int{len(r.Routes): 5}, r.Cfg, rng); err == nil {
		t.Error("out-of-range net ID accepted")
	}
	if _, err := r.Reroute(nl, pl, map[int]int{0: 1}, r.Cfg, rng); err == nil {
		t.Error("trunk layer 1 accepted")
	}
	if _, err := r.Reroute(nl, pl, map[int]int{0: NumMetal + 1}, r.Cfg, rng); err == nil {
		t.Error("trunk layer above top accepted")
	}
}
