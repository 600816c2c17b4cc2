package layout

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cell"
	"repro/internal/geom"
	"repro/internal/netlist"
	"repro/internal/place"
	"repro/internal/route"
)

// The .sml text format serialises a complete placed-and-routed design —
// the role GDSII/DEF files play in the paper's attack model: the layout
// exchange format from which an untrusted foundry reconstructs the
// partially connected netlist. The format is line-based:
//
//	SML 1
//	DESIGN <name>
//	DIE <lox> <loy> <hix> <hiy>
//	CELLS <n>
//	C <id> <kind> <x> <y>
//	NETS <n>
//	N <id> <driverCell> <driverPin> <k> [<sinkCell> <sinkPin>]...
//	ROUTES <n>
//	R <net> <trunkLayer> <eDx> <eDy> <eSx> <eSy> <tAx> <tAy> <tBx> <tBy>
//	S <layer> <side> <ax> <ay> <bx> <by>     (segments of preceding R)
//	V <layer> <side> <x> <y>                 (vias of preceding R)
//	END
//
// Cell kinds refer to the default library by name.

// Save writes the design in .sml format.
func Save(w io.Writer, d *Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "SML 1")
	fmt.Fprintf(bw, "DESIGN %s\n", d.Name)
	die := d.Die()
	fmt.Fprintf(bw, "DIE %d %d %d %d\n", die.Lo.X, die.Lo.Y, die.Hi.X, die.Hi.Y)

	fmt.Fprintf(bw, "CELLS %d\n", len(d.Netlist.Cells))
	for _, c := range d.Netlist.Cells {
		org := d.Placement.Origin(c.ID)
		fmt.Fprintf(bw, "C %d %s %d %d\n", c.ID, c.Kind.Name, org.X, org.Y)
	}

	fmt.Fprintf(bw, "NETS %d\n", len(d.Netlist.Nets))
	for i := range d.Netlist.Nets {
		n := &d.Netlist.Nets[i]
		fmt.Fprintf(bw, "N %d %d %d %d", n.ID, n.Driver.Cell, n.Driver.Pin, len(n.Sinks))
		for _, s := range n.Sinks {
			fmt.Fprintf(bw, " %d %d", s.Cell, s.Pin)
		}
		fmt.Fprintln(bw)
	}

	fmt.Fprintf(bw, "ROUTES %d\n", len(d.Routing.Routes))
	for i := range d.Routing.Routes {
		r := &d.Routing.Routes[i]
		fmt.Fprintf(bw, "R %d %d %d %d %d %d %d %d %d %d\n",
			r.Net, r.TrunkLayer,
			r.DriverEscape.X, r.DriverEscape.Y, r.SinkEscape.X, r.SinkEscape.Y,
			r.TrunkA.X, r.TrunkA.Y, r.TrunkB.X, r.TrunkB.Y)
		for _, s := range r.Segments {
			fmt.Fprintf(bw, "S %d %d %d %d %d %d\n", s.Layer, int(s.Side), s.A.X, s.A.Y, s.B.X, s.B.Y)
		}
		for _, v := range r.Vias {
			fmt.Fprintf(bw, "V %d %d %d %d\n", v.Layer, int(v.Side), v.At.X, v.At.Y)
		}
	}
	fmt.Fprintln(bw, "END")
	return bw.Flush()
}

// loader carries parse state and fails with line numbers.
type loader struct {
	sc   *bufio.Scanner
	line int
}

func (l *loader) next() ([]string, error) {
	for l.sc.Scan() {
		l.line++
		text := strings.TrimSpace(l.sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		return strings.Fields(text), nil
	}
	if err := l.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.ErrUnexpectedEOF
}

func (l *loader) errf(format string, args ...any) error {
	return fmt.Errorf("layout: line %d: %s", l.line, fmt.Sprintf(format, args...))
}

func (l *loader) coord(s string) (geom.Coord, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	return geom.Coord(v), err
}

func (l *loader) atoi(s string) (int, error) { return strconv.Atoi(s) }

// Load parses a .sml design written by Save. The cell library is resolved
// against the default library by kind name. Slices grow as records arrive,
// never from a declared count, so what Load allocates is bounded by its
// input.
func Load(r io.Reader) (*Design, error) {
	l := &loader{sc: bufio.NewScanner(r)}
	l.sc.Buffer(nil, 1<<20)
	lib := cell.DefaultLibrary()

	f, err := l.next()
	if err != nil || len(f) != 2 || f[0] != "SML" || f[1] != "1" {
		return nil, l.errf("missing SML 1 header")
	}
	if f, err = l.next(); err != nil || len(f) != 2 || f[0] != "DESIGN" {
		return nil, l.errf("missing DESIGN")
	}
	name := f[1]

	if f, err = l.next(); err != nil || len(f) != 5 || f[0] != "DIE" {
		return nil, l.errf("missing DIE")
	}
	var die geom.Rect
	coords := make([]geom.Coord, 4)
	for i := 0; i < 4; i++ {
		if coords[i], err = l.coord(f[i+1]); err != nil {
			return nil, l.errf("bad DIE coordinate %q", f[i+1])
		}
	}
	die = geom.R(coords[0], coords[1], coords[2], coords[3])

	// Cells and placement.
	if f, err = l.next(); err != nil || len(f) != 2 || f[0] != "CELLS" {
		return nil, l.errf("missing CELLS")
	}
	nCells, err := l.atoi(f[1])
	if err != nil || nCells < 0 {
		return nil, l.errf("bad cell count")
	}
	nl := &netlist.Netlist{Lib: lib}
	pl := &place.Placement{Die: die}
	for i := 0; i < nCells; i++ {
		if f, err = l.next(); err != nil || len(f) != 5 || f[0] != "C" {
			return nil, l.errf("bad cell record")
		}
		id, err := l.atoi(f[1])
		if err != nil || id != i {
			return nil, l.errf("cell IDs must be dense and ordered, got %q", f[1])
		}
		k := lib.Kind(f[2])
		if k == nil {
			return nil, l.errf("unknown cell kind %q", f[2])
		}
		x, err1 := l.coord(f[3])
		y, err2 := l.coord(f[4])
		if err1 != nil || err2 != nil {
			return nil, l.errf("bad cell origin")
		}
		nl.Cells = append(nl.Cells, netlist.Cell{ID: i, Name: fmt.Sprintf("u%d", i), Kind: k})
		pl.Origins = append(pl.Origins, geom.Pt(x, y))
	}

	// Nets.
	if f, err = l.next(); err != nil || len(f) != 2 || f[0] != "NETS" {
		return nil, l.errf("missing NETS")
	}
	nNets, err := l.atoi(f[1])
	if err != nil || nNets < 0 {
		return nil, l.errf("bad net count")
	}
	for i := 0; i < nNets; i++ {
		if f, err = l.next(); err != nil || len(f) < 5 || f[0] != "N" {
			return nil, l.errf("bad net record")
		}
		id, err := l.atoi(f[1])
		if err != nil || id != i {
			return nil, l.errf("net IDs must be dense and ordered")
		}
		dc, err1 := l.atoi(f[2])
		dp, err2 := l.atoi(f[3])
		k, err3 := l.atoi(f[4])
		if err1 != nil || err2 != nil || err3 != nil || k < 0 || len(f) != 5+2*k {
			return nil, l.errf("malformed net record")
		}
		net := netlist.Net{ID: i, Name: fmt.Sprintf("n%d", i), Driver: netlist.PinRef{Cell: dc, Pin: dp}}
		for s := 0; s < k; s++ {
			sc, err1 := l.atoi(f[5+2*s])
			sp, err2 := l.atoi(f[6+2*s])
			if err1 != nil || err2 != nil {
				return nil, l.errf("malformed sink")
			}
			net.Sinks = append(net.Sinks, netlist.PinRef{Cell: sc, Pin: sp})
		}
		nl.Nets = append(nl.Nets, net)
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("layout: loaded netlist invalid: %w", err)
	}

	// Routes.
	if f, err = l.next(); err != nil || len(f) != 2 || f[0] != "ROUTES" {
		return nil, l.errf("missing ROUTES")
	}
	nRoutes, err := l.atoi(f[1])
	if err != nil || nRoutes != nNets {
		return nil, l.errf("route count %q does not match net count %d", f[1], nNets)
	}
	routing := &route.Routing{Die: die, Routes: make([]route.Route, nRoutes)}
	var cur *route.Route
	for {
		if f, err = l.next(); err != nil {
			return nil, l.errf("unexpected EOF in routes")
		}
		switch f[0] {
		case "R":
			if len(f) != 11 {
				return nil, l.errf("malformed route record")
			}
			netID, err := l.atoi(f[1])
			if err != nil || netID < 0 || netID >= nRoutes {
				return nil, l.errf("bad route net ID")
			}
			trunk, err := l.atoi(f[2])
			if err != nil {
				return nil, l.errf("bad trunk layer")
			}
			var c [8]geom.Coord
			for i := 0; i < 8; i++ {
				if c[i], err = l.coord(f[3+i]); err != nil {
					return nil, l.errf("bad route coordinate")
				}
			}
			routing.Routes[netID] = route.Route{
				Net: netID, TrunkLayer: trunk,
				DriverEscape: geom.Pt(c[0], c[1]), SinkEscape: geom.Pt(c[2], c[3]),
				TrunkA: geom.Pt(c[4], c[5]), TrunkB: geom.Pt(c[6], c[7]),
			}
			cur = &routing.Routes[netID]
		case "S":
			if cur == nil || len(f) != 7 {
				return nil, l.errf("segment outside route")
			}
			layer, err1 := l.atoi(f[1])
			side, err2 := l.atoi(f[2])
			ax, err3 := l.coord(f[3])
			ay, err4 := l.coord(f[4])
			bx, err5 := l.coord(f[5])
			by, err6 := l.coord(f[6])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil {
				return nil, l.errf("malformed segment")
			}
			cur.Segments = append(cur.Segments, route.Segment{
				Layer: layer, Side: route.Side(side),
				A: geom.Pt(ax, ay), B: geom.Pt(bx, by),
			})
		case "V":
			if cur == nil || len(f) != 5 {
				return nil, l.errf("via outside route")
			}
			layer, err1 := l.atoi(f[1])
			side, err2 := l.atoi(f[2])
			x, err3 := l.coord(f[3])
			y, err4 := l.coord(f[4])
			if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
				return nil, l.errf("malformed via")
			}
			cur.Vias = append(cur.Vias, route.Via{Layer: layer, Side: route.Side(side), At: geom.Pt(x, y)})
		case "END":
			d := &Design{Name: name, Netlist: nl, Placement: pl, Routing: routing}
			if err := routing.Validate(); err != nil {
				return nil, fmt.Errorf("layout: loaded routing invalid: %w", err)
			}
			return d, nil
		default:
			return nil, l.errf("unexpected record %q", f[0])
		}
	}
}
