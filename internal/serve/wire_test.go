package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
)

// jsonKeys returns every object key of a JSON document in encounter
// order, nested keys qualified by their parent's ("latest.rows").
func jsonKeys(t *testing.T, blob []byte) []string {
	t.Helper()
	var keys []string
	var walk func(dec *json.Decoder, prefix string)
	walk = func(dec *json.Decoder, prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		switch tok {
		case json.Delim('{'):
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatal(err)
				}
				keys = append(keys, prefix+key.(string))
				walk(dec, prefix+key.(string)+".")
			}
		case json.Delim('['):
			for dec.More() {
				walk(dec, prefix)
			}
		default:
			return
		}
		if _, err := dec.Token(); err != nil { // the closing delimiter
			t.Fatal(err)
		}
	}
	walk(json.NewDecoder(bytes.NewReader(blob)), "")
	return keys
}

// TestProgressDocJSONKeys pins the key sequence of the /progress
// document, whose latest snapshot is a core.Progress.
func TestProgressDocJSONKeys(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doc := submit(t, ts.URL, patientCSV)
	waitState(t, ts.URL, doc.Session, stateReady)
	code, blob := doReq(t, "GET", ts.URL+"/v1/sessions/"+doc.Session+"/progress", "")
	if code != http.StatusOK {
		t.Fatalf("progress: status %d: %s", code, blob)
	}
	want := []string{
		"state", "events", "latest",
		"latest.phase", "latest.cycle", "latest.rows", "latest.cols", "latest.pairs_compared",
		"latest.agree_sets", "latest.ncover_size", "latest.pcover_size", "latest.sample_batches",
		"latest.inversions",
		"done", "done.job", "done.state", "done.code", "done.version",
	}
	if got := jsonKeys(t, blob); !reflect.DeepEqual(got, want) {
		t.Errorf("progress document keys changed:\n got %q\nwant %q", got, want)
	}
}
