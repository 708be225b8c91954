package eulerfd

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestDiscoverApproxThreshold(t *testing.T) {
	rel := patientRelation(t)
	opt := DefaultOptions() // Epsilon 0: exact threshold
	res, err := DiscoverApprox(rel, MeasureG3, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != AlgoAFDg3 || res.Measure != MeasureG3 {
		t.Errorf("result header = %q/%q", res.Algo, res.Measure)
	}
	// eps = 0 threshold results must equal the exact minimal cover.
	exact, err := ExactContext(context.Background(), rel, AlgoTANE)
	if err != nil {
		t.Fatal(err)
	}
	set := &Set{}
	for _, sf := range res.FDs {
		if sf.Score != 0 {
			t.Errorf("eps=0 result %v has nonzero score", sf)
		}
		set.Add(sf.FD)
	}
	if !set.Equal(exact) {
		t.Errorf("DiscoverApprox(eps=0) = %v, exact = %v", set.Slice(), exact.Slice())
	}
}

func TestDiscoverApproxTopK(t *testing.T) {
	rel := patientRelation(t)
	opt := DefaultOptions()
	opt.TopK = 4
	res, err := DiscoverApprox(rel, MeasureTau, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algo != AlgoAFDTopK || len(res.FDs) == 0 || len(res.FDs) > 4 {
		t.Fatalf("topk result = %+v", res)
	}
	for i := 1; i < len(res.FDs); i++ {
		if res.FDs[i].Score < res.FDs[i-1].Score {
			t.Errorf("ranking not sorted: %v after %v", res.FDs[i], res.FDs[i-1])
		}
	}
	// Determinism: a second run is identical.
	again, err := DiscoverApprox(rel, MeasureTau, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.FDs, again.FDs) {
		t.Errorf("top-k ranking differs across runs:\n%v\n%v", res.FDs, again.FDs)
	}
}

func TestDiscoverApproxValidates(t *testing.T) {
	rel := patientRelation(t)
	opt := DefaultOptions()
	opt.Epsilon = 2
	if _, err := DiscoverApprox(rel, MeasureG3, opt); err == nil {
		t.Error("Epsilon = 2 accepted")
	}
	opt = DefaultOptions()
	opt.TopK = -1
	if _, err := DiscoverApprox(rel, MeasureG3, opt); err == nil {
		t.Error("TopK = -1 accepted")
	}
	if _, err := DiscoverApprox(rel, MeasurePdep, DefaultOptions()); err == nil {
		t.Error("threshold mode accepted a non-anti-monotone measure")
	}
}

func TestDiscoverApproxCancelled(t *testing.T) {
	rel := patientRelation(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DiscoverApproxContext(ctx, rel, MeasureG3, DefaultOptions()); err != context.Canceled {
		t.Errorf("cancelled DiscoverApproxContext returned %v", err)
	}
}

func TestApproxResultJSON(t *testing.T) {
	rel := patientRelation(t)
	res, err := DiscoverApprox(rel, MeasureG3, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"algo":"afd-g3"`, `"measure":"g3"`, `"score":`, `"lhs":`, `"rhs":`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("wire JSON missing %s: %s", key, b)
		}
	}
}

func TestDiscoverWithAFDIDs(t *testing.T) {
	rel := patientRelation(t)
	for _, id := range []AlgoID{AlgoAFDg3, AlgoAFDTopK} {
		fds, err := DiscoverWith(context.Background(), id, rel)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if fds.Len() == 0 {
			t.Errorf("%s returned no FDs on patient", id)
		}
	}
}
