package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"eulerfd/internal/core"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// fdsDoc is the /fds document as a client decodes it.
type fdsDoc struct {
	Attrs   []string        `json:"attrs"`
	Version int64           `json:"version"`
	Count   int             `json:"count"`
	FDs     json.RawMessage `json:"fds"`
}

// escapedCSV has attribute names that encoding/json escapes (<, >, &, "
// and U+2028) and a constant column k, whose FD has an empty LHS.
const escapedCSV = "a<b,c>d,e&f,\"g\"\"h\",i\u2028j,k\n" +
	"1,x,p,u,1,z\n" +
	"2,y,q,u,1,z\n" +
	"1,x,r,v,2,z\n" +
	"2,y,s,v,2,z\n" +
	"3,x,p,w,3,z\n"

// noFDCSV has no functional dependency at all: each column maps one
// value of the other to two.
const noFDCSV = "a,b\n1,1\n1,2\n2,1\n"

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file:\n got %q\nwant %q", name, got, want)
	}
}

// TestFDsBodyGolden pins the exact /fds response of an exhaustive
// session: status, Content-Type and every body byte, trailing newline
// included.
func TestFDsBodyGolden(t *testing.T) {
	cfg := Config{Euler: core.DefaultOptions()}
	cfg.Euler.ExhaustWindows = true
	_, ts := newTestServer(t, cfg)
	for golden, csv := range map[string]string{
		"fds_escaped.golden": escapedCSV,
		"fds_empty.golden":   noFDCSV,
	} {
		doc := submit(t, ts.URL, csv)
		waitState(t, ts.URL, doc.Session, stateReady)
		resp, err := http.Get(ts.URL + "/v1/sessions/" + doc.Session + "/fds")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", golden, resp.StatusCode, body)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type = %q", golden, ct)
		}
		checkGolden(t, golden, body)
	}
}
