package regress

import (
	"encoding/json"
	"fmt"
	"os"

	"eulerfd/internal/bench"
)

// Save writes a baseline to path as schema-versioned indented JSON.
func Save(path string, b *Baseline) error {
	return bench.WriteJSONFile(path, b)
}

// Load reads a baseline from path, rejecting unknown schema versions.
func Load(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	if err := bench.CheckSchema(b.Schema); err != nil {
		return nil, fmt.Errorf("regress: %s: %w", path, err)
	}
	return &b, nil
}
