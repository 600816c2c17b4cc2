package serve

import (
	"bytes"
	"encoding/json"
	"runtime/metrics"
	"testing"

	"repro/internal/obs"
)

// specSeeds are the job specs of API.md's examples and the bodies
// TestHTTPErrors submits.
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
}

// decodeSpec decodes a POST /jobs body the way handleSubmit does.
func decodeSpec(data []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var spec JobSpec
	err := dec.Decode(&spec)
	return spec, err
}

// FuzzJobSpec feeds arbitrary bytes through the POST /jobs decoder and
// normalize on a memory-only server. Neither may panic, together they may
// allocate no more than a fixed multiple of the input, and a spec they
// accept must stay within the size ceilings and normalize to itself again
// after a round trip through its JSON record. The multiple is large
// because normalize resolves every configuration of a sweep, and one
// preset lookup allocates about 9.5 KB: 18 bytes of {"preset":"ML-9"}
// cost about 530 bytes per input byte.
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
		if grew, limit := allocated[0].Value.Uint64()-before, uint64(1024*len(data)+1<<20); grew > limit {
			t.Fatalf("decoding and normalizing %d bytes allocated %d bytes, above %d", len(data), grew, limit)
		}
		if err != nil {
			return
		}
		if !(spec.Scale > 0 && spec.Scale <= maxScale) {
			t.Fatalf("accepted scale %g outside (0, %g]", spec.Scale, maxScale)
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
