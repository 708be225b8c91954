package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestTimeRuns(t *testing.T) {
	var calls int
	tm, err := TimeRuns(3, func() (map[string]time.Duration, error) {
		calls++
		return map[string]time.Duration{"a": time.Duration(calls) * time.Millisecond}, nil
	})
	if err != nil || calls != 3 || tm.Runs != 3 {
		t.Fatalf("calls=%d runs=%d err=%v", calls, tm.Runs, err)
	}
	if tm.LayersMS["a"] != 2 {
		t.Errorf("stage median = %v, want 2 (of 1, 2, 3 ms)", tm.LayersMS["a"])
	}
	if tm.MinMS > tm.MedianMS || tm.MedianMS > tm.MaxMS {
		t.Errorf("times not ordered: %+v", tm)
	}

	boom := errors.New("boom")
	calls = 0
	if _, err := TimeRuns(3, func() (map[string]time.Duration, error) {
		calls++
		return nil, boom
	}); !errors.Is(err, boom) || calls != 1 {
		t.Errorf("err=%v after %d calls, want boom after 1", err, calls)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		// A single outlier must not move the median — the property the
		// perf baselines rely on.
		{[]float64{10, 11, 12, 1000, 9}, 11},
	}
	for _, c := range cases {
		if got := Median(c.in); got != c.want {
			t.Errorf("Median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median sorted its input in place: %v", in)
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1500 * time.Millisecond); got != 1500 {
		t.Errorf("Millis = %v", got)
	}
}

func TestCheckSchema(t *testing.T) {
	if err := CheckSchema(SchemaVersion); err != nil {
		t.Errorf("current version rejected: %v", err)
	}
	if err := CheckSchema(SchemaVersion + 1); err == nil {
		t.Error("future version accepted")
	}
	if err := CheckSchema(0); err == nil {
		t.Error("missing schema field (zero) accepted")
	}
}

func TestWriteJSONFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	in := map[string]int{"schema": SchemaVersion, "x": 42}
	if err := WriteJSONFile(path, in); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["x"] != 42 || out["schema"] != SchemaVersion {
		t.Errorf("round trip lost data: %v", out)
	}
	if !strings.Contains(string(data), "\n  ") {
		t.Error("output not indented")
	}
}

func TestWriteJSONFileBadPath(t *testing.T) {
	if err := WriteJSONFile(filepath.Join(t.TempDir(), "no", "such", "dir.json"), 1); err == nil {
		t.Error("bad path accepted")
	}
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	tb := NewTable(&buf, []string{"a", "b"}, []int{4, 4})
	tb.Row("x", "y")
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %q", buf.String())
	}
	if !strings.HasPrefix(lines[0], "a   b") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "x   y") {
		t.Errorf("row = %q", lines[1])
	}
}
