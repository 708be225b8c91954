package quality_test

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"eulerfd/internal/afd"
	"eulerfd/internal/core"
	"eulerfd/internal/dataset"
	"eulerfd/internal/datasets"
	"eulerfd/internal/fdset"
	"eulerfd/internal/preprocess"
	"eulerfd/internal/quality"
)

// applyPlan copies the relation and rewrites each step's rows to the
// RHS value of the step's representative — the substitution the report
// proposes. Plans are computed over one-shot encodings here, so slot
// indices are row indices.
func applyPlan(rel *dataset.Relation, rhs int, plan []quality.PlanStep) *dataset.Relation {
	rows := make([][]string, len(rel.Rows))
	for i, row := range rel.Rows {
		cp := make([]string, len(row))
		copy(cp, row)
		rows[i] = cp
	}
	for _, step := range plan {
		v := rel.Rows[step.Keep][rhs]
		for _, r := range step.Rows {
			rows[r][rhs] = v
		}
	}
	return dataset.MustNew(rel.Name, rel.Attrs, rows)
}

// bruteForceHolds checks lhs → rhs on raw string values, independent of
// the partition machinery: group rows by their LHS tuple, demand a
// constant RHS per group.
func bruteForceHolds(rel *dataset.Relation, lhs fdset.AttrSet, rhs int) bool {
	seen := make(map[string]string, len(rel.Rows))
	var key strings.Builder
	for _, row := range rel.Rows {
		key.Reset()
		lhs.ForEach(func(a int) bool {
			key.WriteString(row[a])
			key.WriteByte(0)
			return true
		})
		k := key.String()
		if prev, ok := seen[k]; ok {
			if prev != row[rhs] {
				return false
			}
		} else {
			seen[k] = row[rhs]
		}
	}
	return true
}

// TestRepairSoundnessRegistry is the acceptance criterion: on every
// registry corpus, applying each proposed repair makes its dependency
// exact (verified against the brute-force raw-value checker) and costs
// exactly the violating-row count, and each ranked dependency's
// redundant-row count equals the scorer's.
func TestRepairSoundnessRegistry(t *testing.T) {
	for _, d := range datasets.All() {
		if testing.Short() && d.Rows*d.Cols > 20000 {
			continue
		}
		d := d
		t.Run(d.Name, func(t *testing.T) {
			rel := d.Build()
			enc := preprocess.Encode(rel)
			cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
			rep, err := quality.Analyze(context.Background(), enc, cover, nil, quality.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Ranked) == 0 {
				t.Fatal("empty ranking")
			}
			scorer := afd.NewScorer(enc, 0)
			for i, rf := range rep.Ranked {
				if want := scorer.RedundantRows(rf.FD.LHS, rf.FD.RHS); rf.RedundantRows != want {
					t.Errorf("%v: redundant rows %d, scorer counts %d", rf.FD, rf.RedundantRows, want)
				}
				plan := quality.Plan(enc, rf.FD.LHS, rf.FD.RHS)
				cost := 0
				for _, step := range plan {
					cost += len(step.Rows)
				}
				if rf.Exact != (cost == 0) {
					t.Errorf("%v: exact=%v but plan cost %d", rf.FD, rf.Exact, cost)
				}
				repaired := applyPlan(rel, rf.FD.RHS, plan)
				if !bruteForceHolds(repaired, rf.FD.LHS, rf.FD.RHS) {
					t.Errorf("%v: repaired relation still violates the dependency", rf.FD)
				}
				if i >= 2 && testing.Short() {
					break
				}
			}
			// Wire-level consistency: report cost equals the violating-row
			// tally per dependency and in aggregate.
			if len(rep.Violations) != len(rep.Repairs) {
				t.Fatalf("%d violation entries vs %d repair entries", len(rep.Violations), len(rep.Repairs))
			}
			totalViol, totalCost := 0, 0
			for i := range rep.Violations {
				v, r := rep.Violations[i], rep.Repairs[i]
				if v.FD != r.FD {
					t.Errorf("entry %d: violation FD %v != repair FD %v", i, v.FD, r.FD)
				}
				if v.ViolatingRows != r.Cost {
					t.Errorf("%v: cost %d != violating rows %d", v.FD, r.Cost, v.ViolatingRows)
				}
				if v.Clusters != r.Clusters {
					t.Errorf("%v: repair clusters %d != violating clusters %d", v.FD, r.Clusters, v.Clusters)
				}
				totalViol += v.ViolatingRows
				totalCost += r.Cost
			}
			if rep.TotalViolatingRows != totalViol || rep.TotalRepairCost != totalCost {
				t.Errorf("aggregate tallies %d/%d, want %d/%d",
					rep.TotalViolatingRows, rep.TotalRepairCost, totalViol, totalCost)
			}
		})
	}
}

// TestQualityReportDeterminism is the byte-identity acceptance check:
// the full report JSON must not change with the worker count (the CI
// race job runs this under -race).
func TestQualityReportDeterminism(t *testing.T) {
	d, err := datasets.ByName("bridges")
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	for _, workers := range []int{1, 4} {
		opt := core.DefaultOptions()
		opt.Workers = workers
		enc := preprocess.Encode(d.Build())
		cover, _ := core.DiscoverEncoded(enc, opt)
		rep, err := quality.Analyze(context.Background(), enc, cover, nil, quality.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil && string(prev) != string(b) {
			t.Fatalf("report differs between Workers=1 and Workers=%d:\n%s\nvs\n%s", workers, prev, b)
		}
		prev = b
	}
}

// TestClusterRepairTieBreak pins the canonical tie-break: among equally
// common RHS values the one seen first in cluster order wins, and its
// first carrier row is the representative.
func TestClusterRepairTieBreak(t *testing.T) {
	rel := dataset.MustNew("tie", []string{"k", "v"}, [][]string{
		{"a", "y"}, // row 0: first occurrence of y → wins the 2-2 tie
		{"a", "x"},
		{"a", "y"},
		{"a", "x"},
		{"b", "z"},
	})
	enc := preprocess.Encode(rel)
	plan := quality.Plan(enc, fdset.NewAttrSet(0), 1)
	if len(plan) != 1 {
		t.Fatalf("plan has %d steps, want 1", len(plan))
	}
	step := plan[0]
	if step.Keep != 0 {
		t.Errorf("representative row %d, want 0", step.Keep)
	}
	if len(step.Rows) != 2 || step.Rows[0] != 1 || step.Rows[1] != 3 {
		t.Errorf("minority rows %v, want [1 3]", step.Rows)
	}
	repaired := applyPlan(rel, 1, plan)
	if !bruteForceHolds(repaired, fdset.NewAttrSet(0), 1) {
		t.Error("repair did not make k -> v exact")
	}
}

// TestNormalizationAdvice checks the advice on a schema with a known
// BCNF violation: city → zip in R(city, zip, name) where {city, name}
// is the key.
func TestNormalizationAdvice(t *testing.T) {
	rel := dataset.MustNew("addr", []string{"city", "zip", "name"}, [][]string{
		{"ams", "1011", "a"},
		{"ams", "1011", "b"},
		{"utr", "3511", "c"},
		{"utr", "3511", "d"},
		{"rtd", "3011", "e"},
	})
	enc := preprocess.Encode(rel)
	cover := fdset.NewSet(
		fdset.NewFD([]int{0}, 1),    // city → zip
		fdset.NewFD([]int{1}, 0),    // zip → city
		fdset.NewFD([]int{0, 2}, 1), // non-minimal noise; harmless
	)
	rep, err := quality.Analyze(context.Background(), enc, cover, nil, quality.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := rep.Normalization
	if n.BCNF {
		t.Fatal("schema reported as BCNF despite city → zip")
	}
	if n.Violation == nil {
		t.Fatal("no violation reported")
	}
	// The first violation in canonical cover order is zip → city ({1} → 0):
	// closure({zip}) = {city, zip}, not a superkey.
	if got := n.Violation.String(); got != "{1} -> 0" {
		t.Errorf("violation %s, want {1} -> 0", got)
	}
	if want := "R1[city zip] ⋈ R2[zip name]"; n.FormatDecomposition(rel.Attrs) != want {
		t.Errorf("decomposition %q, want %q", n.FormatDecomposition(rel.Attrs), want)
	}
	if len(n.LeftFDs) == 0 {
		t.Error("left fragment has no projected FDs")
	}
	for _, pf := range n.LeftFDs {
		if pf.RedundantRows < 0 {
			t.Errorf("negative redundancy for %v", pf.FD)
		}
	}
	if len(n.Keys) == 0 {
		t.Error("no candidate keys on a 3-column schema")
	}
}

// TestNormalizationBCNF checks the quiet path: a cover whose LHSs are
// all superkeys yields BCNF advice and the pinned "BCNF" rendering.
func TestNormalizationBCNF(t *testing.T) {
	rel := dataset.MustNew("kv", []string{"k", "v"}, [][]string{
		{"a", "1"}, {"b", "2"}, {"c", "1"},
	})
	enc := preprocess.Encode(rel)
	cover := fdset.NewSet(fdset.NewFD([]int{0}, 1))
	rep, err := quality.Analyze(context.Background(), enc, cover, nil, quality.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Normalization.BCNF {
		t.Error("k → v with key k should be BCNF")
	}
	if got := rep.Normalization.FormatDecomposition(rel.Attrs); got != "BCNF" {
		t.Errorf("decomposition rendering %q, want BCNF", got)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	enc := preprocess.Encode(dataset.MustNew("t", []string{"a"}, [][]string{{"x"}}))
	bad := []quality.Options{
		{TopK: 0, MaxClusters: 1, MaxRows: 1},
		{TopK: 1, MaxClusters: 0, MaxRows: 1},
		{TopK: 1, MaxClusters: 1, MaxRows: 0},
		{TopK: 1, MaxClusters: 1, MaxRows: 1, CacheSize: -1},
	}
	for _, opt := range bad {
		if _, err := quality.Analyze(context.Background(), enc, fdset.NewSet(), nil, opt); err == nil {
			t.Errorf("Analyze accepted invalid options %+v", opt)
		}
	}
}

func TestAnalyzeCancellation(t *testing.T) {
	d, err := datasets.ByName("iris")
	if err != nil {
		t.Fatal(err)
	}
	enc := preprocess.Encode(d.Build())
	cover, _ := core.DiscoverEncoded(enc, core.DefaultOptions())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := quality.Analyze(ctx, enc, cover, nil, quality.DefaultOptions()); err != context.Canceled {
		t.Errorf("cancelled Analyze returned %v", err)
	}
}
