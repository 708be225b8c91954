package core

import (
	"encoding/json"
	"testing"
)

// Stats and Progress are a wire shape: fdserve's /stats, /progress and
// /events documents, fddiscover -json and the repository benchmark's
// decoders all read these bytes. The golden strings pin every key, its
// position and its encoding.
func TestStatsProgressJSONGolden(t *testing.T) {
	var st Stats
	st.Rows, st.Cols = 1, 2
	st.PairsCompared, st.AgreeSets = 3, 4
	st.NcoverSize, st.PcoverSize = 5, 6
	st.SampleBatches, st.Inversions = 7, 8
	st.Retired, st.PatchedRHS, st.Clamped = 9, 10, 11
	st.Preprocess, st.Sampling, st.NcoverBuild, st.Inversion, st.Total = 12, 13, 14, 15, 16
	const wantStats = `{"rows":1,"cols":2,"pairs_compared":3,"agree_sets":4,"ncover_size":5,"pcover_size":6,` +
		`"sample_batches":7,"inversions":8,"retired":9,"patched_rhs":10,"clamped":11,"preprocess_ns":12,` +
		`"sampling_ns":13,"ncover_build_ns":14,"inversion_ns":15,"total_ns":16}`

	var p Progress
	p.Phase, p.Cycle = "sampled", 16
	p.Rows, p.Cols = 1, 2
	p.PairsCompared, p.AgreeSets = 3, 4
	p.NcoverSize, p.PcoverSize = 5, 6
	p.SampleBatches, p.Inversions = 7, 8
	const wantProgress = `{"phase":"sampled","cycle":16,"rows":1,"cols":2,"pairs_compared":3,"agree_sets":4,` +
		`"ncover_size":5,"pcover_size":6,"sample_batches":7,"inversions":8}`

	for _, c := range []struct {
		name string
		v    any
		want string
	}{{"Stats", st, wantStats}, {"Progress", p, wantProgress}} {
		blob, err := json.Marshal(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if string(blob) != c.want {
			t.Errorf("%s wire shape changed:\n got %s\nwant %s", c.name, blob, c.want)
		}
		if c.name == "Stats" {
			var back Stats
			if err := json.Unmarshal(blob, &back); err != nil || back != st {
				t.Errorf("Stats round trip = %+v, %v; want %+v", back, err, st)
			}
		}
	}
}
