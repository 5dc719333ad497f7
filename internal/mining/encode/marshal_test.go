package encode

import (
	"encoding/json"
	"strings"
	"testing"

	"roadcrash/internal/data"
)

// TestMarshalRoundTrip pins the serialization contract: a decoded encoder
// transforms bit-identically to the fitted one, including the imputation
// and standardization statistics and the one-hot layout.
func TestMarshalRoundTrip(t *testing.T) {
	ds := testDS()
	e, err := Fit(ds, Options{Bias: true, Exclude: []string{"target"}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var back Encoder
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Width() != e.Width() {
		t.Fatalf("width %d -> %d", e.Width(), back.Width())
	}
	names, backNames := e.colNames, back.colNames
	for i := range names {
		if names[i] != backNames[i] {
			t.Fatalf("feature %d name %q -> %q", i, names[i], backNames[i])
		}
	}
	M := data.Missing
	probes := [][]float64{
		{1, 0, 1, 0},
		{2.5, 2, 0, 1},
		{M, 1, 1, 0},
		{3, M, 0, 1},
		{0.5, 2, M, 0},
		{M, M, M, M},
	}
	for i, row := range probes {
		want := e.Transform(row, nil)
		got := back.Transform(row, nil)
		for j := range want {
			if want[j] != got[j] {
				t.Errorf("probe %d feature %d: decoded %v, fitted %v", i, j, got[j], want[j])
			}
		}
	}
	// Encode -> decode -> encode is byte-stable.
	raw2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(raw2) {
		t.Error("re-encoding a decoded encoder changed the bytes")
	}
}

func TestMarshalUnfitted(t *testing.T) {
	if _, err := json.Marshal(&Encoder{}); err == nil {
		t.Error("marshaling an unfitted encoder must fail")
	}
}

func TestValidateColumns(t *testing.T) {
	ds := testDS()
	e, err := Fit(ds, Options{Exclude: []string{"target"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Validate(ds.NumAttrs()); err != nil {
		t.Errorf("valid encoder rejected: %v", err)
	}
	if err := e.Validate(1); err == nil {
		t.Error("source column outside schema not caught")
	}
}

// TestUnmarshalCorrupt drives the strict decode paths.
func TestUnmarshalCorrupt(t *testing.T) {
	ds := testDS()
	e, err := Fit(ds, Options{Bias: true, Exclude: []string{"target"}})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(from, to string) string { return strings.Replace(string(raw), from, to, 1) }
	cases := map[string]string{
		"truncated":           string(raw[:len(raw)/2]),
		"not json":            "{nope",
		"cols/specs mismatch": corrupt(`"cols":[0,1,2]`, `"cols":[0,1]`),
		"zero width":          corrupt(`"width":6`, `"width":0`),
		"negative width":      corrupt(`"width":6`, `"width":-3`),
		"unknown kind":        corrupt(`"kind":"nominal"`, `"kind":"weird"`),
		"nominal no levels":   corrupt(`"n_levels":3`, `"n_levels":0`),
		"interval bad sd":     `{"cols":[0],"specs":[{"kind":"interval","mean":0,"sd":0,"offset":0}],"width":1,"col_names":["x"]}`,
		"offset out of range": corrupt(`"width":6`, `"width":2`),
		"negative offset":     `{"cols":[0],"specs":[{"kind":"interval","mean":0,"sd":1,"offset":-1}],"width":1,"col_names":["x"]}`,
	}
	for name, payload := range cases {
		var back Encoder
		if err := json.Unmarshal([]byte(payload), &back); err == nil {
			t.Errorf("%s: corrupt payload accepted", name)
		}
	}
}

// TestFitBiasOnlyError pins the remaining fit rejection: a bias column
// alone is not a usable design matrix (the other rejection paths live in
// TestFitErrors).
func TestFitBiasOnlyError(t *testing.T) {
	ds := testDS()
	if _, err := Fit(ds, Options{Bias: true, Exclude: []string{"x", "s", "flag", "target"}}); err == nil {
		t.Error("bias-only encoder accepted")
	}
}
