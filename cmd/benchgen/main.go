// Command benchgen generates the synthetic benchmark suite and prints its
// vital statistics: per-design sizes, trunk-layer populations, and v-pin
// counts per split layer — the quantities that determine attack difficulty.
// -o additionally writes every design as a <design>.sml layout file.
//
// Observability is opt-in: -v streams structured span logs to stderr
// (-log-format text|json), -report writes a JSON run report with
// per-design generation spans, -metrics dumps the metrics registry,
// -serve-obs serves live telemetry, -trace writes a Chrome trace, and
// -cpuprofile/-memprofile capture pprof profiles.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/cli"
	"repro/internal/layout"
	"repro/internal/route"
	"repro/internal/split"
	"repro/internal/timing"
)

func main() {
	fs := flag.NewFlagSet("benchgen", flag.ExitOnError)
	app := cli.New("benchgen", fs)
	out := fs.String("o", "", "directory to write <design>.sml files to")
	o := app.Parse(os.Args[1:])

	suite := app.Suite(o)
	designs := suite.Designs
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			cli.Fatal(err)
		}
		for _, d := range designs {
			path := filepath.Join(*out, d.Name+".sml")
			f, err := os.Create(path)
			if err != nil {
				cli.Fatal(err)
			}
			if err := layout.Save(f, d); err != nil {
				f.Close()
				cli.Fatal(err)
			}
			f.Close()
			fmt.Printf("wrote %s\n", path)
		}
	}

	layers := []int{8, 6, 4}
	cuts := map[int][]*split.Challenge{}
	for _, layer := range layers {
		chs, err := suite.Challenges(layer, 0)
		if err != nil {
			cli.Fatal(err)
		}
		cuts[layer] = chs
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tcells\tnets\tdie\tvpins@8\tvpins@6\tvpins@4\tmeanMatchDist@6")
	designStats := []map[string]any{}
	for di, d := range designs {
		row := fmt.Sprintf("%s\t%d\t%d\t%dx%d", d.Name,
			len(d.Netlist.Cells), len(d.Netlist.Nets), d.Die().Width(), d.Die().Height())
		stats := map[string]any{
			"name": d.Name, "cells": len(d.Netlist.Cells), "nets": len(d.Netlist.Nets),
		}
		for _, layer := range layers {
			row += fmt.Sprintf("\t%d", len(cuts[layer][di].VPins))
			stats[fmt.Sprintf("vpins@%d", layer)] = len(cuts[layer][di].VPins)
		}
		fmt.Fprintf(tw, "%s\t%.0f\n", row, cuts[6][di].Summary().MeanMatchDist)
		designStats = append(designStats, stats)
	}
	tw.Flush()

	fmt.Println("\nTrunk-layer populations (nets per top metal layer):")
	tw = tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprint(tw, "design")
	for m := 2; m <= route.NumMetal; m++ {
		fmt.Fprintf(tw, "\tM%d", m)
	}
	fmt.Fprintln(tw)
	for _, d := range designs {
		pop := d.Routing.LayerPopulation()
		fmt.Fprint(tw, d.Name)
		for m := 2; m <= route.NumMetal; m++ {
			fmt.Fprintf(tw, "\t%d", pop[m])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Printf("\nPer-layer routing utilisation (%s):\n", designs[0].Name)
	route.WriteStats(os.Stdout, designs[0].Routing.Stats())

	fmt.Println("\nStatic timing summary:")
	tw = tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
	fmt.Fprintln(tw, "design\tmean delay\tmax delay\toverloaded drivers")
	for _, d := range designs {
		dt := timing.Analyze(d)
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%d\n", d.Name, dt.MeanDelay, dt.MaxDelay, dt.OverloadedDrivers)
	}
	tw.Flush()

	summary := map[string]any{"designs": designStats}
	app.Finish(o, nil, summary)
}
