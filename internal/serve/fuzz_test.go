package serve

import (
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"strings"
	"testing"

	"repro/internal/obs"
)

// specSeeds are the job specs of API.md's examples, the bodies
// TestHTTPErrors submits, and a sweep of 3,001 empty configs, which
// decoded in one pass would allocate about 330 bytes per body byte.
var specSeeds = []string{
	`{"kind":"attack","design":"sb1","layer":8,"config":{"preset":"Imp-11"}}`,
	`{"kind":"proximity","design":"sb18","config":{"preset":"Imp-11Y","two_level":true}}`,
	`{"kind":"sweep"}`,
	`{"kind":"sweep","layer":6,"tier":"standard","scale":0.2,"seed":5,"configs":[{"preset":"ML-9"},{"name":"x","learner":"logistic"}]}`,
	`{"kind":"train","design":"sbx10","tier":"industrial","config":{"preset":"DL-MLP","mlp_hidden":32,"mlp_epochs":5,"mlp_rate":0.1}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","name":"my-variant","features":[0,1,2,3,4,5,6,7,8],` +
		`"neighborhood":true,"neighbor_quantile":0.9,"limit_diff_vpin_y":false,"two_level":false,"base":"reptree",` +
		`"num_trees":50,"max_loc_frac":0.15,"max_loc_count":0,"shard_vpins":0,"train_cap":0,"learner":"bagging",` +
		`"mlp_hidden":0,"mlp_epochs":0,"mlp_rate":0,"ranking":false}}`,
	`not json`,
	`{"kind":"attack","design":"sb1","config":{"preset":"ML-9"},"bogus":1}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"ML-9","scalar_scoring":true}}`,
	`{"kind":"attack","design":"sb1"}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","neighbor_quantile":1.5}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","num_trees":-3}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","max_loc_frac":2}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","train_cap":-1}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_hidden":-3}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_epochs":-1}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_rate":-0.05}}`,
	`{"kind":"attack","design":"sb1","scale":1e6,"config":{"preset":"ML-9"}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"Imp-11","num_trees":1001}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_hidden":1025}}`,
	`{"kind":"attack","design":"sb1","config":{"preset":"DL-MLP","mlp_epochs":1001}}`,
	`{"kind":"sweep","configs":[` + strings.Repeat(`{},`, 3000) + `{}]}`,
}

// TestDecodeSpecConfigsCeiling holds a submitted sweep to maxSweepConfigs
// configurations, however its "configs" key is spelled, however often it
// appears and whatever its elements are.
func TestDecodeSpecConfigsCeiling(t *testing.T) {
	list := func(n int) string { return "[" + strings.Repeat(`{"preset":"ML-9"},`, n-1) + `{"preset":"ML-9"}]` }
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"kind":"sweep","configs":` + list(maxSweepConfigs) + `}`, true},
		{`{"kind":"sweep","configs":` + list(maxSweepConfigs+1) + `}`, false},
		{`{"kind":"sweep","Configs":` + list(maxSweepConfigs+1) + `}`, false},
		{`{"kind":"sweep","configs":` + list(maxSweepConfigs+1) + `,"configs":[]}`, false},
		{`{"kind":"sweep","configs":[],"CONFIGS":` + list(maxSweepConfigs+1) + `}`, false},
		{`{"kind":"sweep","configs":[` + strings.Repeat(`1,`, maxSweepConfigs) + `1]}`, false},
	} {
		spec, err := decodeSpec([]byte(tc.body))
		if (err == nil) != tc.ok {
			t.Errorf("%.60s…: decoded %d configs, error %v; want ok %v", tc.body, len(spec.Configs), err, tc.ok)
		}
	}
}

// FuzzJobSpec feeds arbitrary bytes through the POST /jobs decoder and
// normalize on a memory-only server. Neither may panic, together they may
// allocate no more than 64 times the input (the bound of the other
// decoders' fuzz targets) plus a fixed 1 MiB, and a spec they accept must
// stay within the size ceilings and normalize to itself again after a
// round trip through its JSON record. The bound holds because the decoder
// counts a sweep's configurations before it decodes them, and normalize's
// preset lookups build only the preset they name.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range specSeeds {
		f.Add([]byte(seed))
	}
	s, err := New(Options{Obs: obs.New(obs.Options{Command: "fuzz"}), Pool: 1, runner: stubRunner})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > maxSpecBytes {
			return // handleSubmit refuses it unread
		}
		allocated := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocated)
		before := allocated[0].Value.Uint64()
		spec, err := decodeSpec(data)
		if err == nil {
			spec, err = s.normalize(spec)
		}
		metrics.Read(allocated)
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(64*len(data)+1<<20); grew > limit {
			t.Fatalf("decoding and normalizing %d bytes allocated %d bytes, above %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if !(spec.Scale > 0 && spec.Scale <= maxScale) {
			t.Fatalf("accepted scale %g outside (0, %g]", spec.Scale, maxScale)
		}
		if len(spec.Configs) > maxSweepConfigs {
			t.Fatalf("accepted a sweep of %d configs, above %d", len(spec.Configs), maxSweepConfigs)
		}
		configs := spec.Configs
		if spec.Config != nil {
			configs = append(configs, *spec.Config)
		}
		for _, cs := range configs {
			cfg, err := cs.resolve()
			if err != nil {
				t.Fatalf("accepted config %+v does not resolve: %v", cs, err)
			}
			if cfg.NumTrees > maxNumTrees || cfg.MLPHidden > maxMLPHidden || cfg.MLPEpochs > maxMLPEpochs {
				t.Fatalf("accepted config above a ceiling: %d trees, %d hidden, %d epochs",
					cfg.NumTrees, cfg.MLPHidden, cfg.MLPEpochs)
			}
		}
		record, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := decodeSpec(record)
		if err == nil {
			again, err = s.normalize(again)
		}
		if err != nil {
			t.Fatalf("accepted spec's record %s is refused: %v", record, err)
		}
		if second, _ := json.Marshal(again); !bytes.Equal(record, second) {
			t.Fatalf("accepted spec normalizes to another spec:\n%s\nthen\n%s", record, second)
		}
	})
}
