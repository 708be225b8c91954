package analysis

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// ReportSchemaVersion versions fdlint's machine-readable JSON output,
// following the same convention as internal/bench: readers
// reject documents with a different version instead of misinterpreting
// renamed fields.
const ReportSchemaVersion = 1

// JSONFinding is one diagnostic in the -json report. File is
// module-relative when the finding sits under the working directory,
// absolute otherwise.
type JSONFinding struct {
	Analyzer string `json:"analyzer"`
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

// JSONReport is the -json document: schema-versioned findings plus the
// suppression-audit results.
type JSONReport struct {
	Schema       int           `json:"schema"`
	Tool         string        `json:"tool"`
	Findings     []JSONFinding `json:"findings"`
	StaleIgnores []JSONFinding `json:"stale_ignores"`
}

// BuildJSONReport converts a Result, relativizing file paths against
// dir (typically the working directory the lint ran from).
func BuildJSONReport(res *Result, dir string) *JSONReport {
	conv := func(diags []Diagnostic) []JSONFinding {
		out := make([]JSONFinding, 0, len(diags))
		for _, d := range diags {
			out = append(out, JSONFinding{
				Analyzer: d.Analyzer,
				Package:  d.PkgPath,
				File:     relPath(dir, d.Posn.Filename),
				Line:     d.Posn.Line,
				Column:   d.Posn.Column,
				Message:  d.Message,
			})
		}
		return out
	}
	return &JSONReport{
		Schema:       ReportSchemaVersion,
		Tool:         "fdlint",
		Findings:     conv(res.Diags),
		StaleIgnores: conv(res.StaleIgnores),
	}
}

// WriteJSON writes the -json report for res.
func WriteJSON(w io.Writer, res *Result, dir string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BuildJSONReport(res, dir))
}

// The SARIF types below cover the minimal subset GitHub code scanning
// ingests (static analysis results interchange format 2.1.0): one run,
// one driver with a rule per analyzer, results referencing rules by id
// with physical locations. Forward-slash relative URIs let GitHub
// anchor findings to files in the PR diff.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF writes res as a SARIF 2.1.0 log. Findings are errors;
// stale suppressions are warnings under the synthetic "ignores" rule.
func WriteSARIF(w io.Writer, analyzers []*Analyzer, res *Result, dir string) error {
	driver := sarifDriver{Name: "fdlint"}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	driver.Rules = append(driver.Rules, sarifRule{
		ID:               "ignores",
		ShortDescription: sarifMessage{Text: "//fdlint:ignore comment that suppresses no finding"},
	})
	results := make([]sarifResult, 0, len(res.Diags)+len(res.StaleIgnores))
	add := func(diags []Diagnostic, level string) {
		for _, d := range diags {
			results = append(results, sarifResult{
				RuleID:  d.Analyzer,
				Level:   level,
				Message: sarifMessage{Text: d.Message},
				Locations: []sarifLocation{{
					PhysicalLocation: sarifPhysical{
						ArtifactLocation: sarifArtifact{
							URI: filepath.ToSlash(relPath(dir, d.Posn.Filename)),
						},
						Region: sarifRegion{
							StartLine:   d.Posn.Line,
							StartColumn: d.Posn.Column,
						},
					},
				}},
			})
		}
	}
	add(res.Diags, "error")
	add(res.StaleIgnores, "warning")
	log := sarifLog{
		Schema:  "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: driver}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath relativizes path against dir when the result stays inside it;
// otherwise the path is returned unchanged.
func relPath(dir, path string) string {
	if dir == "" {
		return path
	}
	rel, err := filepath.Rel(dir, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
