package eulerfd

import (
	"context"
	"encoding/json"
	"testing"
)

func TestAlgorithmsRegistry(t *testing.T) {
	infos := Algorithms()
	if len(infos) != 14 {
		t.Fatalf("Algorithms() = %d entries, want 14", len(infos))
	}
	if infos[0].ID != AlgoEuler {
		t.Errorf("first registered algorithm = %q, want %q", infos[0].ID, AlgoEuler)
	}
	wantExact := map[AlgoID]bool{
		AlgoEuler: false, AlgoEulerEnsemble: false, AlgoHyFD: true, AlgoTANE: true, AlgoFun: true,
		AlgoDfd: true, AlgoFdep: true, AlgoDepMiner: true, AlgoFastFDs: true,
		AlgoAIDFD: false, AlgoKivinen: false,
		AlgoAFDg3: false, AlgoAFDTopK: false, AlgoAFDRedundancy: false,
	}
	seen := map[AlgoID]bool{}
	for _, info := range infos {
		if seen[info.ID] {
			t.Errorf("algorithm %q registered twice", info.ID)
		}
		seen[info.ID] = true
		exact, known := wantExact[info.ID]
		if !known {
			t.Errorf("unexpected algorithm %q", info.ID)
			continue
		}
		if info.Exact != exact {
			t.Errorf("%q: Exact = %v, want %v", info.ID, info.Exact, exact)
		}
		if info.Name == "" || info.Summary == "" {
			t.Errorf("%q: missing Name or Summary: %+v", info.ID, info)
		}
	}
	// Deterministic order: two calls agree element-wise.
	again := Algorithms()
	for i := range infos {
		if infos[i] != again[i] {
			t.Fatalf("Algorithms() order not stable at %d: %v vs %v", i, infos[i], again[i])
		}
	}
}

func TestDiscoverWithMatchesWrappers(t *testing.T) {
	rel := patientRelation(t)
	ctx := context.Background()
	viaRegistry, err := DiscoverWith(ctx, AlgoHyFD, rel)
	if err != nil {
		t.Fatal(err)
	}
	viaExact, err := Exact(rel)
	if err != nil {
		t.Fatal(err)
	}
	viaTANE, err := ExactContext(ctx, rel, AlgoTANE)
	if err != nil {
		t.Fatal(err)
	}
	if !viaRegistry.Equal(viaExact) || !viaRegistry.Equal(viaTANE) {
		t.Errorf("DiscoverWith(hyfd), Exact and ExactContext(tane) disagree")
	}
}

func TestDiscoverWithUnknownAlgo(t *testing.T) {
	rel := patientRelation(t)
	if _, err := DiscoverWith(context.Background(), AlgoID("nope"), rel); err == nil {
		t.Fatal("DiscoverWith with unknown id should fail")
	}
}

func TestExactContextRejectsApproximate(t *testing.T) {
	rel := patientRelation(t)
	if _, err := ExactContext(context.Background(), rel, AlgoEuler); err == nil {
		t.Fatal("ExactContext(AlgoEuler) should be refused: EulerFD is approximate")
	}
	fds, err := ExactContext(context.Background(), rel, AlgoHyFD)
	if err != nil {
		t.Fatal(err)
	}
	if fds.Len() == 0 {
		t.Fatal("ExactContext(AlgoHyFD) found no FDs")
	}
}

func TestDiscoverContextCancelled(t *testing.T) {
	rel := patientRelation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiscoverContext(ctx, rel, DefaultOptions()); err != context.Canceled {
		t.Fatalf("pre-cancelled DiscoverContext: err = %v, want context.Canceled", err)
	}
	for _, id := range []AlgoID{AlgoHyFD, AlgoTANE, AlgoFdep, AlgoAIDFD} {
		if _, err := DiscoverWith(ctx, id, rel); err != context.Canceled {
			t.Errorf("pre-cancelled DiscoverWith(%q): err = %v, want context.Canceled", id, err)
		}
	}
}

// TestResultJSONRoundTrip pins the wire shape shared by fddiscover
// -json, the fdserve service, and the benchmark artifacts.
func TestResultJSONRoundTrip(t *testing.T) {
	rel := patientRelation(t)
	res, err := Discover(rel, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]json.RawMessage
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"algo", "fds", "stats"} {
		if _, ok := wire[key]; !ok {
			t.Errorf("Result JSON lacks %q key: %s", key, blob)
		}
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(wire["stats"], &stats); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"rows", "cols", "pairs_compared", "total_ns"} {
		if _, ok := stats[key]; !ok {
			t.Errorf("Stats JSON lacks %q key: %s", key, wire["stats"])
		}
	}

	var back Result
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Algo != res.Algo {
		t.Errorf("Algo round-trip: %q != %q", back.Algo, res.Algo)
	}
	if !back.FDs.Equal(res.FDs) {
		t.Errorf("FDs did not survive the JSON round-trip")
	}
	if back.Stats != res.Stats {
		t.Errorf("Stats round-trip: %+v != %+v", back.Stats, res.Stats)
	}
	// Deterministic encoding: marshaling twice yields identical bytes.
	blob2, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Error("Result JSON encoding is not deterministic")
	}
}
