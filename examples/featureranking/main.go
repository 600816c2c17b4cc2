// Feature-ranking study: which layout features carry the signal that
// breaks split manufacturing, and how does their importance shift as the
// split moves to lower layers? Reproduces the analysis behind the paper's
// Fig. 7 using information gain and Fisher's discriminant ratio.
//
// Run with:
//
//	go run ./examples/featureranking
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"text/tabwriter"

	"repro"
	"repro/internal/attack"
	"repro/internal/features"
	"repro/internal/ml"
)

func main() {
	designs, err := repro.GenerateSuite(repro.SuiteConfig{Scale: 0.4, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	for _, layer := range []int{8, 6, 4} {
		chs, err := repro.SplitAll(designs, layer)
		if err != nil {
			log.Fatal(err)
		}
		insts := attack.NewInstancesWorkers(chs, 0)
		radius := attack.NeighborRadiusNorm(insts, 0.90)
		rng := rand.New(rand.NewSource(int64(layer)))
		ds := attack.TrainingSet(repro.Imp11(), insts, radius, nil, rng)

		// Model-based importance: what a trained ensemble actually uses
		// (a held-out split keeps the AUC estimate honest).
		val, train := ds.SplitFrac(0.3, rng)
		model, err := ml.TrainBagging(train, ml.DefaultBaggingSize,
			ml.TreeOptions{Kind: ml.REPTree}, rng)
		if err != nil {
			log.Fatal(err)
		}
		perm := ml.PermutationImportance(model, val, rng)

		type ranked struct {
			name   string
			gain   float64
			fisher float64
			perm   float64
		}
		rows := make([]ranked, 0, features.NumFeatures)
		for f := 0; f < features.NumFeatures; f++ {
			col := ds.Column(f)
			rows = append(rows, ranked{
				name:   features.Names[f],
				gain:   ml.InfoGain(col, ds.Y, 10),
				fisher: ml.FisherRatio(col, ds.Y),
				perm:   perm[f],
			})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].gain > rows[j].gain })

		fmt.Printf("Split layer %d - features ranked by information gain:\n", layer)
		tw := tabwriter.NewWriter(os.Stdout, 2, 2, 2, ' ', 0)
		fmt.Fprintln(tw, "rank\tfeature\tinfo gain\tFisher ratio\tpermutation (AUC drop)")
		for i, r := range rows {
			fmt.Fprintf(tw, "%d\t%s\t%.4f\t%.4f\t%.4f\n", i+1, r.name, r.gain, r.fisher, r.perm)
		}
		tw.Flush()
		fmt.Println()
	}

	fmt.Println("Routing-derived features (v-pin positions and their Manhattan")
	fmt.Println("distance) dominate at every layer; the top-layer DiffVpinY signal")
	fmt.Println("weakens at lower splits, where more features share the work —")
	fmt.Println("the paper's argument for why lower split layers are safer.")
}
