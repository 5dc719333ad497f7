package data

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzNDJSONBatchReader drives the NDJSON feed parser with arbitrary byte
// streams against a schema covering every attribute kind, mirroring
// FuzzReadCSV's contract: the reader never panics (it parses or rejects
// cleanly), and any accepted stream survives a WriteNDJSON -> read
// round-trip with shape and cell values intact — including nominal levels
// interned mid-stream and missing values in every kind.
func FuzzNDJSONBatchReader(f *testing.F) {
	seeds := []string{
		// Well-formed rows of every kind; omitted keys and nulls are missing.
		"{\"x\": 1.5, \"s\": \"a\", \"flag\": true}\n{\"x\": null, \"s\": \"c\"}\n{}\n",
		// Blank lines are skipped; whitespace tolerated.
		"\n  \n{\"x\": 2}\n\n",
		// Numeric strings for interval values, string booleans for binary.
		"{\"x\": \"3.25\", \"flag\": \"yes\"}\n{\"flag\": \"0\"}\n",
		// Exotic floats: NaN string collapses to missing, Inf survives quoted.
		"{\"x\": \"NaN\"}\n{\"x\": \"Inf\"}\n{\"x\": 1e308}\n{\"x\": -0}\n",
		// New nominal levels interned in stream order, odd names included.
		"{\"s\": \"b\"}\n{\"s\": \"?\"}\n{\"s\": \"\"}\n{\"s\": \"li\\\"ne\"}\n",
		// Rejects: unknown key, wrong types, bad binary, malformed JSON.
		"{\"typo\": 1}\n",
		"{\"s\": 3}\n",
		"{\"x\": true}\n",
		"{\"flag\": 2}\n",
		"{\"flag\": \"maybe\"}\n",
		"{not json}\n",
		"[1, 2]\n",
		"{\"x\": {\"nested\": 1}}\n",
		// Trailing garbage after a valid row; duplicate keys (rejected —
		// a map-based decode would silently keep the last value).
		"{\"x\": 1} extra\n",
		"{\"x\": 1, \"x\": 2}\n",
		"{\"flag\": true, \"x\": null, \"flag\": false}\n",
		// Escapes: surrogate pair, lone surrogate, raw DEL (the strconv
		// quoting bug's trigger), invalid escape.
		"{\"s\": \"\\ud83d\\ude00\"}\n{\"s\": \"\\ud800\"}\n{\"s\": \"\x7f\"}\n",
		"{\"s\": \"\\x41\"}\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	schema := []Attribute{
		{Name: "x", Kind: Interval},
		{Name: "s", Kind: Nominal, Levels: []string{"a", "b"}},
		{Name: "flag", Kind: Binary},
	}
	f.Fuzz(func(t *testing.T, in string) {
		// A tiny chunk size forces multi-batch reads through the reused
		// batch, the path the scoring service runs.
		ds, err := ReadAll("fuzz", NewNDJSONBatchReader(strings.NewReader(in), schema, 3))
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		for j := 0; j < ds.NumAttrs(); j++ {
			if got := len(ds.Col(j)); got != ds.Len() {
				t.Fatalf("column %d has %d values for %d instances", j, got, ds.Len())
			}
		}
		// The caller-supplied schema must not be mutated by level growth.
		if len(schema[1].Levels) != 2 {
			t.Fatalf("reader mutated the caller's schema: %v", schema[1].Levels)
		}
		var buf bytes.Buffer
		if err := ds.WriteNDJSON(&buf); err != nil {
			t.Fatalf("accepted stream failed to serialize: %v", err)
		}
		back, err := ReadAll("fuzz2", NewNDJSONBatchReader(bytes.NewReader(buf.Bytes()), ds.Attrs(), DefaultChunkSize))
		if err != nil {
			t.Fatalf("round-trip rejected its own output: %v\ninput: %q\nwritten: %q", err, in, buf.String())
		}
		if back.Len() != ds.Len() || back.NumAttrs() != ds.NumAttrs() {
			t.Fatalf("round-trip shape %dx%d, want %dx%d", back.Len(), back.NumAttrs(), ds.Len(), ds.NumAttrs())
		}
		for j := 0; j < ds.NumAttrs(); j++ {
			a, b := ds.Attr(j), back.Attr(j)
			if a.Kind != b.Kind || a.Name != b.Name {
				t.Fatalf("column %d schema %v -> %v", j, a, b)
			}
			// The re-reader is seeded with the grown level set, so nominal
			// indices are stable and every cell must round-trip exactly
			// (missing stays missing; NaN intervals collapsed to missing on
			// the first read already).
			for i := 0; i < ds.Len(); i++ {
				v, w := ds.At(i, j), back.At(i, j)
				if IsMissing(v) != IsMissing(w) || (!IsMissing(v) && v != w) {
					t.Fatalf("cell (%d,%d) %v -> %v\ninput: %q\nwritten: %q", i, j, v, w, in, buf.String())
				}
			}
		}
	})
}
