package tree

import (
	"encoding/json"
	"slices"
	"testing"
)

// TestMarshalRoundTrip pins the artifact payload of both tree kinds: a
// decoded tree keeps its schema and routes every probe to the same leaf
// with the same score, and a corrupt payload is rejected.
func TestMarshalRoundTrip(t *testing.T) {
	ds := mixedDataset(800, 5)
	target := ds.MustAttrIndex("y")
	cfg := DefaultConfig()
	cfg.MinLeaf = 15
	ct, err := Grow(ds, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := GrowRegression(ds, target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*Tree{"classification": ct, "regression": rt} {
		raw, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		var back Tree
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if back.Leaves() != tr.Leaves() || back.NumAttrs() != tr.NumAttrs() {
			t.Fatalf("%s: %d leaves over %d columns, want %d over %d",
				name, back.Leaves(), back.NumAttrs(), tr.Leaves(), tr.NumAttrs())
		}
		for j, a := range tr.SchemaAttrs() {
			b := back.SchemaAttrs()[j]
			if a.Name != b.Name || a.Kind != b.Kind || !slices.Equal(a.Levels, b.Levels) {
				t.Fatalf("%s: attribute %d %+v -> %+v", name, j, a, b)
			}
		}
		for i, row := range compileProbes() {
			if back.LeafID(row) != tr.LeafID(row) || back.PredictProb(row) != tr.PredictProb(row) {
				t.Fatalf("%s: probe %d routes differently after decoding", name, i)
			}
		}
	}

	if _, err := json.Marshal(&Tree{}); err == nil {
		t.Error("unfitted tree marshaled")
	}
	const schema = `"schema":[{"name":"x","kind":"interval"}]`
	for name, payload := range map[string]string{
		"not JSON":              "[",
		"unknown kind":          `{"schema":[{"name":"x","kind":"ordinal"}],"root":{"leaf":true}}`,
		"target outside schema": `{"target":1,` + schema + `,"root":{"leaf":true}}`,
		"no root":               `{` + schema + `}`,
		"split outside schema":  `{` + schema + `,"root":{"attr":3,"left":{"leaf":true},"right":{"leaf":true}}}`,
		"no left child":         `{` + schema + `,"root":{"right":{"leaf":true}}}`,
		"no right child":        `{` + schema + `,"root":{"left":{"leaf":true}}}`,
	} {
		var back Tree
		if err := json.Unmarshal([]byte(payload), &back); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
