package artifact

import (
	"bytes"
	"strings"
	"testing"

	"roadcrash/internal/data"
)

// FuzzArtifactDecode drives the artifact decoder — and through it every
// learner kind's UnmarshalJSON — with arbitrary bytes. The contract:
// Decode never panics (malformed, truncated and internally inconsistent
// artifacts are rejections, not crashes); an accepted artifact re-encodes
// deterministically, survives a decode -> encode -> decode round-trip byte
// for byte, and its model scores a full-schema row without panicking. An
// accepted input is the whole artifact: with a byte of garbage appended it
// is rejected, and with a newline appended it decodes to the same bytes.
// The seed corpus holds one well-formed artifact per kind plus truncated
// and version-mangled variants, so the fuzzer starts inside the format.
func FuzzArtifactDecode(f *testing.F) {
	ds := synthDataset(f, 400, 29)
	for kind, model := range trainAll(f, ds) {
		thr := 8
		if kind == KindZINB {
			thr = 1
		}
		a, err := New("fuzz-"+string(kind), kind, model, ds.Attrs(), thr, 29, "label", nil)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		good := buf.String()
		f.Add(good)
		f.Add(good[:len(good)/3])
		f.Add(strings.Replace(good, `"format_version": 2`, `"format_version": 1`, 1))
		f.Add(strings.Replace(good, `"format_version": 2`, `"format_version": 7`, 1))
	}
	f.Add(`{}`)
	f.Add(`{"format_version": 2, "kind": "zinb"}`)

	f.Fuzz(func(t *testing.T, in string) {
		a, err := Decode(strings.NewReader(in))
		if err != nil {
			return // rejected inputs only need to fail cleanly
		}
		var b1 bytes.Buffer
		if err := a.Encode(&b1); err != nil {
			t.Fatalf("accepted artifact failed to encode: %v", err)
		}
		back, err := Decode(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("re-decode of an accepted artifact failed: %v", err)
		}
		var b2 bytes.Buffer
		if err := back.Encode(&b2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("decode -> encode is not byte-stable")
		}
		if _, err := Decode(strings.NewReader(in + "x")); err == nil {
			t.Fatal("an accepted artifact with trailing garbage decoded")
		}
		nl, err := Decode(strings.NewReader(in + "\n"))
		if err != nil {
			t.Fatalf("an accepted artifact with a trailing newline failed: %v", err)
		}
		var b3 bytes.Buffer
		if err := nl.Encode(&b3); err != nil || !bytes.Equal(b1.Bytes(), b3.Bytes()) {
			t.Fatalf("a trailing newline changed the decoded artifact (%v)", err)
		}
		m, err := back.Model()
		if err != nil {
			t.Fatalf("accepted artifact failed to rebuild its model: %v", err)
		}
		row := make([]float64, len(back.Schema))
		for i := range row {
			row[i] = data.Missing
		}
		_ = m.PredictProb(row) // must not panic on an all-missing row
	})
}
