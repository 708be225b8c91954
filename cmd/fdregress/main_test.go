package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eulerfd/internal/regress"
)

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Errorf("no verb: exit %d", code)
	}
	if code := run([]string{"frobnicate"}, &out, &errw); code != 2 {
		t.Errorf("unknown verb: exit %d", code)
	}
	if code := run([]string{"diff", "only-one.json"}, &out, &errw); code != 2 {
		t.Errorf("diff with one file: exit %d", code)
	}
	if code := run([]string{"check", "-perf-mode", "strict"}, &out, &errw); code != 2 {
		t.Errorf("bad perf mode: exit %d", code)
	}
	if code := run([]string{"record", "-bogus"}, &out, &errw); code != 2 {
		t.Errorf("bad flag: exit %d", code)
	}
}

func TestCheckMissingBaseline(t *testing.T) {
	var out, errw bytes.Buffer
	code := run([]string{"check", "-baseline", filepath.Join(t.TempDir(), "nope.json")}, &out, &errw)
	if code != 1 {
		t.Errorf("missing baseline: exit %d", code)
	}
}

// TestRecordCheckPerturb is the acceptance test of the harness: record a
// baseline, verify a clean tree checks out, then seed an accuracy
// regression by perturbing one recorded cell and verify check fails with
// a readable report. `go test` runs packages concurrently and wall times
// under that load are not a measurement, so the clean check ignores them
// (-perf-mode off): a baseline recorded under load would otherwise list
// "improvement" rows in place of "all cells match". The perturbed check
// keeps perf warn-only. Accuracy stays exact-gated in both; the dedicated
// CI job gates perf for real.
func TestRecordCheckPerturb(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BASELINE.json")

	var out, errw bytes.Buffer
	if code := run([]string{"record", "-o", path, "-runs", "1"}, &out, &errw); code != 0 {
		t.Fatalf("record: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "wrote "+path) {
		t.Errorf("record output missing path: %q", out.String())
	}

	out.Reset()
	if code := run([]string{"check", "-baseline", path, "-runs", "1", "-perf-mode", "off"}, &out, &errw); code != 0 {
		t.Fatalf("clean check: exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "all cells match") {
		t.Errorf("clean check output: %q", out.String())
	}

	// Seed an accuracy regression: claim the baseline found one more
	// true positive on abalone than the tree now reproduces.
	b, err := regress.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := false
	for i := range b.Cells {
		if b.Cells[i].Dataset == "abalone" {
			b.Cells[i].Accuracy.TruePositives++
			b.Cells[i].Accuracy.FalseNegatives--
			perturbed = true
		}
	}
	if !perturbed {
		t.Fatal("abalone not in recorded suite")
	}
	if err := regress.Save(path, b); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	code := run([]string{"check", "-baseline", path, "-runs", "1", "-perf-mode", "warn"}, &out, &errw)
	if code != 1 {
		t.Fatalf("perturbed check: exit %d (want 1)\n%s", code, out.String())
	}
	for _, want := range []string{"REGRESSION", "abalone", "tp"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("failure report missing %q:\n%s", want, out.String())
		}
	}
}

func TestDiffVerb(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	bpath := filepath.Join(dir, "b.json")

	var out, errw bytes.Buffer
	if code := run([]string{"record", "-o", a, "-runs", "1"}, &out, &errw); code != 0 {
		t.Fatalf("record: exit %d\n%s", code, errw.String())
	}

	base, err := regress.Load(a)
	if err != nil {
		t.Fatal(err)
	}
	base.Cells[0].Accuracy.F1 = 0 // seeded regression in the copy
	if err := regress.Save(bpath, base); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if code := run([]string{"diff", a, a}, &out, &errw); code != 0 {
		t.Errorf("self diff: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"diff", a, bpath}, &out, &errw); code != 1 {
		t.Errorf("diff vs perturbed: exit %d\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "f1") {
		t.Errorf("diff output missing field name:\n%s", out.String())
	}
}

// TestCheckCommittedBaseline pins the acceptance criterion that a clean
// tree passes against the repo's committed BASELINE.json: the accuracy
// half must reproduce bit-identically on any machine.
func TestCheckCommittedBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite check skipped in -short mode")
	}
	committed := filepath.Join("..", "..", "BASELINE.json")
	if _, err := os.Stat(committed); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	var out, errw bytes.Buffer
	code := run([]string{"check", "-baseline", committed, "-runs", "1", "-perf-mode", "warn"}, &out, &errw)
	if code != 0 {
		t.Fatalf("clean tree fails committed baseline: exit %d\n%s%s", code, out.String(), errw.String())
	}
}
