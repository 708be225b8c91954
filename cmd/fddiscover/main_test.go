package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeCSV(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const simpleCSV = "A,B,C\n1,x,p\n2,y,q\n1,x,r\n2,y,s\n"

func TestRunEveryAlgorithm(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	for _, algo := range []string{"euler", "aidfd", "hyfd", "tane", "fun", "dfd", "fdep", "depminer", "fastfds", "kivinen"} {
		var out, errw bytes.Buffer
		code := run([]string{"-algo", algo, "-stats", path}, &out, &errw)
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", algo, code, errw.String())
		}
		// A ↔ B in both directions; C is a key.
		if !strings.Contains(out.String(), "[A] -> B") {
			t.Errorf("%s output missing [A] -> B:\n%s", algo, out.String())
		}
		if !strings.Contains(errw.String(), algo+":") {
			t.Errorf("%s: -stats not printed", algo)
		}
	}
}

func TestRunCheckReportsF1(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-check", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "F1=") {
		t.Errorf("-check output missing F1: %s", errw.String())
	}
}

func TestRunExhaustiveAndThreshold(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-exhaustive", "-th", "0", "-queues", "3", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
}

func TestRunNoHeaderAndSep(t *testing.T) {
	path := writeCSV(t, "1;x\n2;y\n1;x\n")
	var out, errw bytes.Buffer
	if code := run([]string{"-no-header", "-sep", ";", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "[col0] -> col1") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no file", []string{}, 2},
		{"bad algo", []string{"-algo", "nope", path}, 2},
		{"bad sep", []string{"-sep", "ab", path}, 2},
		{"missing file", []string{filepath.Join(t.TempDir(), "nope.csv")}, 1},
		{"bad flag", []string{"-definitely-not-a-flag"}, 2},
	}
	for _, c := range cases {
		var out, errw bytes.Buffer
		if code := run(c.args, &out, &errw); code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, code, c.code, errw.String())
		}
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-json", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var docs []struct {
		LHS []string `json:"lhs"`
		RHS string   `json:"rhs"`
	}
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	found := false
	for _, d := range docs {
		if d.RHS == "B" && len(d.LHS) == 1 && d.LHS[0] == "A" {
			found = true
		}
	}
	if !found {
		t.Errorf("JSON missing A -> B: %s", out.String())
	}
}

func TestRunTargetFilter(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-target", "B", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if !strings.HasSuffix(line, "-> B") {
			t.Errorf("non-target FD in output: %q", line)
		}
	}
	if code := run([]string{"-target", "Zzz", path}, &out, &errw); code != 2 {
		t.Errorf("unknown target: exit %d", code)
	}
}

func TestRunApproxThreshold(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-measure", "g3", "-eps", "0", "-stats", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "[A] -> B  score=0.000000") {
		t.Errorf("approx output missing scored A -> B:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "measure=g3") {
		t.Errorf("-stats missing measure: %s", errw.String())
	}
}

func TestRunApproxTopKJSON(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-topk", "3", "-measure", "pdep", "-json", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var docs []struct {
		LHS   []string `json:"lhs"`
		RHS   string   `json:"rhs"`
		Score float64  `json:"score"`
	}
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(docs) == 0 || len(docs) > 3 {
		t.Fatalf("|topk| = %d: %s", len(docs), out.String())
	}
	for i := 1; i < len(docs); i++ {
		if docs[i].Score < docs[i-1].Score {
			t.Errorf("ranking not sorted: %s", out.String())
		}
	}
}

func TestRunApproxErrors(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"bad measure", []string{"-measure", "nope", path}, 2},
		{"eps out of range", []string{"-eps", "1.5", path}, 1},
		{"pdep threshold", []string{"-measure", "pdep", path}, 1},
	}
	for _, c := range cases {
		var out, errw bytes.Buffer
		if code := run(c.args, &out, &errw); code != c.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", c.name, code, c.code, errw.String())
		}
	}
}

func TestRunWorkersFlag(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-workers", "4", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "-> B") {
		t.Errorf("output: %s", out.String())
	}
}

func TestRunEnsembleMode(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	code := run([]string{"-ensemble", "3", "-seed", "7", "-stats", path}, &out, &errw)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errw.String())
	}
	if !strings.Contains(out.String(), "conf=") || !strings.Contains(out.String(), "votes=") {
		t.Errorf("ensemble output missing confidence annotations:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "euler-ensemble:") || !strings.Contains(errw.String(), "seed=7") {
		t.Errorf("-stats line missing: %s", errw.String())
	}

	// Same invocation twice: byte-identical output (the determinism contract).
	var out2, errw2 bytes.Buffer
	if code := run([]string{"-ensemble", "3", "-seed", "7", path}, &out2, &errw2); code != 0 {
		t.Fatalf("exit %d: %s", code, errw2.String())
	}
	var out3 bytes.Buffer
	if code := run([]string{"-ensemble", "3", "-seed", "7", path}, &out3, &errw2); code != 0 {
		t.Fatalf("exit %d: %s", code, errw2.String())
	}
	if out2.String() != out3.String() {
		t.Errorf("ensemble output not repeatable:\n%s\nvs\n%s", out2.String(), out3.String())
	}
}

func TestRunEnsembleJSON(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-ensemble", "2", "-json", path}, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	var docs []struct {
		LHS        []string `json:"lhs"`
		RHS        string   `json:"rhs"`
		Confidence float64  `json:"confidence"`
		Votes      int      `json:"votes"`
		Suspect    bool     `json:"suspect"`
	}
	if err := json.Unmarshal(out.Bytes(), &docs); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(docs) == 0 {
		t.Fatal("no candidates in JSON output")
	}
	for _, d := range docs {
		if d.Confidence <= 0 || d.Confidence > 1 || d.Votes < 1 || d.Votes > 2 {
			t.Errorf("implausible candidate: %+v", d)
		}
	}
}

func TestRunEnsembleRejectsApproxMix(t *testing.T) {
	path := writeCSV(t, simpleCSV)
	var out, errw bytes.Buffer
	if code := run([]string{"-ensemble", "2", "-topk", "3", path}, &out, &errw); code != 2 {
		t.Fatalf("mixing -ensemble with -topk: exit %d, want 2", code)
	}
}

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestRunGoldenOutput pins fddiscover's text and -json output on a fixed
// CSV whose attribute names need JSON escaping (<, >, &, " and U+2028)
// and whose constant column yields an FD with an empty LHS.
func TestRunGoldenOutput(t *testing.T) {
	csv := filepath.Join("testdata", "escaped.csv")
	for golden, args := range map[string][]string{
		"escaped.txt.golden":  {csv},
		"escaped.json.golden": {"-json", csv},
	} {
		var out, errw bytes.Buffer
		if code := run(args, &out, &errw); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errw.String())
		}
		path := filepath.Join("testdata", golden)
		if *update {
			if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v output differs from %s:\n got %q\nwant %q", args, golden, out.Bytes(), want)
		}
	}
}
