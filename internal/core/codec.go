package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// paramsFile is the on-disk JSON schema for Params. Versioned so a
// future format change stays readable.
type paramsFile struct {
	Version int    `json:"version"`
	Params  Params `json:"params"`
}

// currentParamsVersion is the schema version written by WriteParams.
const currentParamsVersion = 1

// WriteParams serializes model parameters as JSON, the hand-off format
// between the profiling step (replicadb profile) and the prediction step
// (replicadb predict) — §4 produces a parameter file once, predictions are
// then rerun freely.
func WriteParams(w io.Writer, p Params) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("core: refusing to write invalid params: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(paramsFile{Version: currentParamsVersion, Params: p})
}

// ReadParams parses parameters written by WriteParams and validates
// them.
func ReadParams(r io.Reader) (Params, error) {
	var f paramsFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return Params{}, fmt.Errorf("core: parse params: %w", err)
	}
	if f.Version != currentParamsVersion {
		return Params{}, fmt.Errorf("core: unsupported params version %d", f.Version)
	}
	if err := f.Params.Validate(); err != nil {
		return Params{}, fmt.Errorf("core: invalid params: %w", err)
	}
	return f.Params, nil
}
