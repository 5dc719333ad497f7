package artifact

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/mining/bayes"
	"roadcrash/internal/mining/ensemble"
	"roadcrash/internal/mining/logit"
	"roadcrash/internal/mining/m5"
	"roadcrash/internal/mining/neural"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/mining/zinb"
	"roadcrash/internal/rng"
)

// synthDataset builds a small mixed-kind dataset with a learnable signal
// and sprinkled missing values: positive when x1 + noise clears a cut,
// modulated by the nominal surface. crash_count is the same signal as a
// count — zero below the cut, growing with the score above it — so the
// hurdle learner has both components to fit.
func synthDataset(t testing.TB, n int, seed uint64) *data.Dataset {
	t.Helper()
	r := rng.New(seed)
	b := data.NewBuilder("synth").
		Interval("x1").
		Interval("x2").
		Nominal("surface", "seal", "gravel", "concrete").
		Binary("wet").
		Binary("label").
		Interval("label_num").
		Interval("crash_count")
	for i := 0; i < n; i++ {
		x1 := r.Normal(0, 1)
		x2 := r.Normal(0, 1)
		surface := float64(r.Intn(3))
		wet := float64(r.Intn(2))
		score := x1 + 0.5*x2 + 0.8*surface + 0.3*wet + r.Normal(0, 0.5)
		label := 0.0
		if score > 1.2 {
			label = 1
		}
		count := math.Floor(score)
		if count < 0 {
			count = 0
		}
		if r.Float64() < 0.05 {
			x2 = data.Missing
		}
		if r.Float64() < 0.05 {
			surface = data.Missing
		}
		b.Row(x1, x2, surface, wet, label, label, count)
	}
	return b.Build()
}

// heldOutRows builds a grid of full-schema probe rows, including missing
// values and every nominal level, to pin prediction equality over the
// whole input space rather than the training points.
func heldOutRows(ds *data.Dataset) [][]float64 {
	var rows [][]float64
	for _, x1 := range []float64{-2, -0.5, 0, 0.7, 2.5, data.Missing} {
		for _, x2 := range []float64{-1.5, 0, 1.5, data.Missing} {
			for surface := -1; surface < 3; surface++ {
				sv := float64(surface)
				if surface < 0 {
					sv = data.Missing
				}
				rows = append(rows, []float64{x1, x2, sv, float64(len(rows) % 2), data.Missing, data.Missing, data.Missing})
			}
		}
	}
	return rows
}

func treeCfg(ds *data.Dataset) tree.Config {
	cfg := tree.DefaultConfig()
	cfg.MinLeaf = 10
	cfg.Features = []int{0, 1, 2, 3}
	return cfg
}

// trainAll fits one model per artifact kind on the synthetic data.
func trainAll(t testing.TB, ds *data.Dataset) map[Kind]Scorer {
	t.Helper()
	binCol := ds.MustAttrIndex("label")
	numCol := ds.MustAttrIndex("label_num")

	dt, err := tree.Grow(ds, binCol, treeCfg(ds))
	if err != nil {
		t.Fatalf("decision tree: %v", err)
	}
	rt, err := tree.GrowRegression(ds, numCol, treeCfg(ds))
	if err != nil {
		t.Fatalf("regression tree: %v", err)
	}
	nbCfg := bayes.DefaultConfig()
	nbCfg.Features = []int{0, 1, 2, 3}
	nb, err := bayes.Train(ds, binCol, nbCfg)
	if err != nil {
		t.Fatalf("naive bayes: %v", err)
	}
	lrCfg := logit.DefaultConfig()
	lrCfg.Exclude = []string{"label_num"}
	lr, err := logit.Train(ds, binCol, lrCfg)
	if err != nil {
		t.Fatalf("logit: %v", err)
	}
	bagCfg := ensemble.DefaultBaggingConfig()
	bagCfg.Trees = 5
	bagCfg.Tree = treeCfg(ds)
	bag, err := ensemble.TrainBagging(ds, binCol, bagCfg)
	if err != nil {
		t.Fatalf("bagging: %v", err)
	}
	adaCfg := ensemble.DefaultAdaBoostConfig()
	adaCfg.Rounds = 5
	adaCfg.Tree.MinLeaf = 10
	adaCfg.Tree.Features = []int{0, 1, 2, 3}
	ada, err := ensemble.TrainAdaBoost(ds, binCol, adaCfg)
	if err != nil {
		t.Fatalf("adaboost: %v", err)
	}
	zbCfg := zinb.DefaultConfig()
	zbCfg.Exclude = []string{"label", "label_num"}
	zb, err := zinb.Train(ds, ds.MustAttrIndex("crash_count"), zbCfg)
	if err != nil {
		t.Fatalf("zinb: %v", err)
	}
	m5Cfg := m5.DefaultConfig()
	m5Cfg.Tree = treeCfg(ds)
	m5Cfg.Exclude = []string{"label", "crash_count"}
	mt, err := m5.Train(ds, numCol, m5Cfg)
	if err != nil {
		t.Fatalf("m5: %v", err)
	}
	nnCfg := neural.DefaultConfig()
	nnCfg.Epochs = 10
	nnCfg.Exclude = []string{"label_num", "crash_count"}
	nn, err := neural.Train(ds, binCol, nnCfg)
	if err != nil {
		t.Fatalf("neural: %v", err)
	}
	return map[Kind]Scorer{
		KindDecisionTree:   dt,
		KindRegressionTree: rt,
		KindNaiveBayes:     nb,
		KindLogistic:       lr,
		KindBagging:        bag,
		KindAdaBoost:       ada,
		KindZINB:           zb.Thresholded(1),
		KindM5:             mt,
		KindNeural:         nn,
	}
}

func TestRoundTripBitIdenticalPredictions(t *testing.T) {
	ds := synthDataset(t, 600, 7)
	probes := heldOutRows(ds)
	for kind, model := range trainAll(t, ds) {
		t.Run(string(kind), func(t *testing.T) {
			// The zinb payload embeds its own count boundary, which must agree
			// with the header threshold; trainAll builds it at t = 1.
			thr := 8
			if kind == KindZINB {
				thr = 1
			}
			a, err := New("rt-"+string(kind), kind, model, ds.Attrs(), thr, 7, "label", map[string]float64{"mcpv": 0.5})
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := a.Encode(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := back.Model()
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range probes {
				want := model.PredictProb(row)
				got := decoded.PredictProb(row)
				if math.IsNaN(want) && math.IsNaN(got) {
					continue
				}
				if want != got {
					t.Fatalf("probe %d: prediction drifted across round-trip: %v -> %v", i, want, got)
				}
			}
			// Header metadata survives.
			if back.Threshold != thr || back.Seed != 7 || back.Target != "label" || back.Metrics["mcpv"] != 0.5 {
				t.Fatalf("metadata mangled: %+v", back)
			}
		})
	}
}

func TestEncodeDeterministic(t *testing.T) {
	ds := synthDataset(t, 400, 11)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("det", KindDecisionTree, dt, ds.Attrs(), 4, 11, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := a.Encode(&b1); err != nil {
		t.Fatal(err)
	}
	if err := a.Encode(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encoding the same artifact twice produced different bytes")
	}
	// Encode -> decode -> encode is also byte-stable.
	back, err := Decode(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b3 bytes.Buffer
	if err := back.Encode(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Fatal("re-encoding a decoded artifact produced different bytes")
	}
}

// TestWriteReadFile pins the file helpers: WriteFile stores exactly the
// artifact's Encode bytes and ReadFile decodes them back to the same
// artifact, while a missing file, an uncreatable path, an invalid artifact
// and a corrupt file are errors, the last one naming the file.
func TestWriteReadFile(t *testing.T) {
	ds := synthDataset(t, 200, 5)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("file", KindDecisionTree, dt, ds.Attrs(), 4, 5, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := a.Encode(&want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "file.json")
	if err := WriteFile(path, a); err != nil {
		t.Fatal(err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, want.Bytes()) {
		t.Fatalf("WriteFile stored %d bytes (%v), Encode gives %d", len(raw), err, want.Len())
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := back.Encode(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("ReadFile did not return the artifact WriteFile stored")
	}

	if _, err := ReadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("ReadFile of a missing file succeeded")
	}
	if err := WriteFile(filepath.Join(dir, "no-such-dir", "file.json"), a); err == nil {
		t.Error("WriteFile into a missing directory succeeded")
	}
	invalid := *a
	invalid.Name = ""
	if err := WriteFile(filepath.Join(dir, "invalid.json"), &invalid); err == nil {
		t.Error("WriteFile of an artifact without a name succeeded")
	}
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, want.Bytes()[:want.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(corrupt); err == nil || !strings.Contains(err.Error(), corrupt) {
		t.Errorf("ReadFile of a truncated artifact: %v, want an error naming %s", err, corrupt)
	}
}

// TestTrailingData pins that an artifact is the whole input: Decode and
// ReadFile reject anything but whitespace after the artifact, so a file
// with garbage or a second artifact appended fails at load, and trailing
// newlines still decode to the same artifact.
func TestTrailingData(t *testing.T) {
	ds := synthDataset(t, 200, 5)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("trail", KindDecisionTree, dt, ds.Attrs(), 4, 5, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	dir := t.TempDir()
	for i, tc := range []struct {
		name, in string
		ok       bool
	}{
		{"trailing garbage", good + "garbage{", false},
		{"two artifacts", good + good, false},
		{"trailing newlines", good + "\n\n", true},
	} {
		path := filepath.Join(dir, fmt.Sprintf("case-%d.json", i))
		if err := os.WriteFile(path, []byte(tc.in), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, ferr := ReadFile(path)
		decoded, derr := Decode(strings.NewReader(tc.in))
		if !tc.ok {
			if derr == nil {
				t.Errorf("%s: Decode accepted it", tc.name)
			}
			if ferr == nil || !strings.Contains(ferr.Error(), path) {
				t.Errorf("%s: ReadFile: %v, want an error naming %s", tc.name, ferr, path)
			}
			continue
		}
		for reader, back := range map[string]*Artifact{"Decode": decoded, "ReadFile": fromFile} {
			if back == nil {
				t.Errorf("%s: %s rejected it: %v %v", tc.name, reader, derr, ferr)
				continue
			}
			var again bytes.Buffer
			if err := back.Encode(&again); err != nil || again.String() != good {
				t.Errorf("%s: %s did not return the encoded artifact (%v)", tc.name, reader, err)
			}
		}
	}
}

func TestDecodeRejectsCorruptArtifacts(t *testing.T) {
	ds := synthDataset(t, 400, 3)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("corrupt", KindDecisionTree, dt, ds.Attrs(), 8, 3, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"empty":            "",
		"not json":         "certainly not json",
		"truncated":        good[:len(good)/2],
		"future version":   strings.Replace(good, `"format_version": 2`, `"format_version": 99`, 1),
		"version zero":     strings.Replace(good, `"format_version": 2`, `"format_version": 0`, 1),
		"unknown kind":     strings.Replace(good, `"kind": "decision-tree"`, `"kind": "perceptron"`, 1),
		"empty name":       strings.Replace(good, `"name": "corrupt"`, `"name": ""`, 1),
		"no header target": strings.Replace(good, `"target":`, `"bogus":`, 1),
		"payload mangled":  strings.Replace(good, `"root":`, `"rooty":`, 1),
		"payload not tree": strings.Replace(good, `"payload": {`, `"payload": 42, "x": {`, 1),
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt artifact decoded without error", name)
		}
	}
}

// TestVersionCompat pins the format's compatibility rules: a version-1
// artifact carrying a version-1 kind still decodes (and re-encodes without
// silently upgrading), while a version-1 artifact claiming one of the
// version-2 count/regression kinds is corrupt by construction.
func TestVersionCompat(t *testing.T) {
	ds := synthDataset(t, 400, 17)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("compat", KindDecisionTree, dt, ds.Attrs(), 8, 17, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	v1 := strings.Replace(buf.String(), `"format_version": 2`, `"format_version": 1`, 1)
	if v1 == buf.String() {
		t.Fatal("test setup: version replacement did not apply")
	}
	back, err := Decode(strings.NewReader(v1))
	if err != nil {
		t.Fatalf("version-1 artifact no longer decodes: %v", err)
	}
	if back.FormatVersion != 1 {
		t.Fatalf("decoded format version = %d, want 1", back.FormatVersion)
	}
	decoded, err := back.Model()
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range heldOutRows(ds) {
		if got, want := decoded.PredictProb(row), dt.PredictProb(row); got != want {
			t.Fatalf("probe %d: version-1 decode drifted: %v vs %v", i, got, want)
		}
	}
	// Re-encoding keeps the artifact at its own version, byte for byte.
	var again bytes.Buffer
	if err := back.Encode(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != v1 {
		t.Fatal("re-encoding a version-1 artifact changed its bytes")
	}

	// A version-2 kind inside a version-1 envelope must be rejected.
	zbCfg := zinb.DefaultConfig()
	zbCfg.Exclude = []string{"label", "label_num"}
	zb, err := zinb.Train(ds, ds.MustAttrIndex("crash_count"), zbCfg)
	if err != nil {
		t.Fatal(err)
	}
	za, err := New("compat-zinb", KindZINB, zb.Thresholded(1), ds.Attrs(), 1, 17, "crash_count", nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := za.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	zv1 := strings.Replace(buf.String(), `"format_version": 2`, `"format_version": 1`, 1)
	if _, err := Decode(strings.NewReader(zv1)); err == nil {
		t.Error("version-1 artifact with a zinb payload decoded without error")
	}
}

// TestDecodeRejectsCorruptCountKinds runs the corrupt-decode table over the
// version-2 kinds: truncation, mangled payload keys, a payload decoded
// under the wrong kind, and a zinb payload whose embedded count boundary
// disagrees with the header threshold.
func TestDecodeRejectsCorruptCountKinds(t *testing.T) {
	ds := synthDataset(t, 500, 19)
	encoded := func(kind Kind, model Scorer, thr int, target string) string {
		t.Helper()
		a, err := New("c-"+string(kind), kind, model, ds.Attrs(), thr, 19, target, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	models := trainAll(t, ds)
	zs := encoded(KindZINB, models[KindZINB], 1, "crash_count")
	ms := encoded(KindM5, models[KindM5], 8, "label_num")
	ns := encoded(KindNeural, models[KindNeural], 8, "label")

	cases := map[string]string{
		"zinb truncated":      zs[:len(zs)/2],
		"zinb payload key":    strings.Replace(zs, `"hurdle_weights"`, `"hurdle_wrong"`, 1),
		"zinb as logistic":    strings.Replace(zs, `"kind": "zinb"`, `"kind": "logistic"`, 1),
		"zinb threshold":      strings.Replace(zs, `"threshold": 1`, `"threshold": 3`, 1),
		"m5 truncated":        ms[:len(ms)/2],
		"m5 payload key":      strings.Replace(ms, `"structure"`, `"structurey"`, 1),
		"m5 as decision-tree": strings.Replace(ms, `"kind": "m5"`, `"kind": "decision-tree"`, 1),
		"neural truncated":    ns[:len(ns)/2],
		"neural payload key":  strings.Replace(ns, `"w1"`, `"w9"`, 1),
		"neural as zinb":      strings.Replace(ns, `"kind": "neural"`, `"kind": "zinb"`, 1),
	}
	for name, in := range cases {
		if _, err := Decode(strings.NewReader(in)); err == nil {
			t.Errorf("%s: corrupt artifact decoded without error", name)
		}
	}
}

// TestDecodeRejectsPayloadSchemaDrift pins the load-time contract for
// corruption that used to surface only at scoring time: out-of-schema
// column indices and nominal level sets that drifted between the header
// and a tree payload.
func TestDecodeRejectsPayloadSchemaDrift(t *testing.T) {
	ds := synthDataset(t, 400, 13)
	binCol := ds.MustAttrIndex("label")

	nbCfg := bayes.DefaultConfig()
	nbCfg.Features = []int{0, 1, 2, 3}
	nb, err := bayes.Train(ds, binCol, nbCfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("nb", KindNaiveBayes, nb, ds.Attrs(), 8, 13, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// A hand-edited cols entry pointing outside the schema must fail the
	// load, not panic the first PredictProb.
	mangled := strings.Replace(buf.String(), `"cols": [`, `"cols": [999, `, 1)
	mangled = strings.Replace(mangled, `, 3]`, `]`, 1)
	if _, err := Decode(strings.NewReader(mangled)); err == nil {
		t.Error("naive-bayes artifact with out-of-schema column decoded without error")
	}

	dt, err := tree.Grow(ds, binCol, treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	ta, err := New("dt", KindDecisionTree, dt, ds.Attrs(), 8, 13, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := ta.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	// Permute the header's nominal level order relative to the tree
	// payload: silent misrouting of every nominal value if accepted.
	swapped := strings.Replace(buf.String(),
		"\"seal\",\n        \"gravel\"", "\"gravel\",\n        \"seal\"", 1)
	if swapped == buf.String() {
		t.Fatal("test setup: level-order replacement did not apply")
	}
	if _, err := Decode(strings.NewReader(swapped)); err == nil {
		t.Error("tree artifact with drifted level order decoded without error")
	}
}

func TestRowMapperDataset(t *testing.T) {
	ds := synthDataset(t, 400, 5)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("map", KindDecisionTree, dt, ds.Attrs(), 8, 5, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}

	// An input with renamed-away targets, an extra bookkeeping column and
	// shuffled column order must score identically to in-process rows.
	in := data.NewBuilder("batch").
		Interval("segment_id").
		Nominal("surface", "gravel", "seal"). // different level order than training
		Interval("x1").
		Binary("wet")
	in.Row(1, 0, -1.5, 1) // gravel
	in.Row(2, 1, 2.0, 0)  // seal
	in.Row(3, data.Missing, 0.3, 1)
	batch := in.Build()

	rows, err := m.MapDataset(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Schema order: x1, x2, surface, wet, label, label_num.
	if rows[0][0] != -1.5 || rows[1][0] != 2.0 {
		t.Fatalf("x1 misplaced: %v", rows)
	}
	if !data.IsMissing(rows[0][1]) || !data.IsMissing(rows[0][4]) {
		t.Fatal("absent input columns must map to missing")
	}
	// gravel is level 1 in training, level 0 in the input.
	if rows[0][2] != 1 || rows[1][2] != 0 {
		t.Fatalf("nominal remap wrong: %v %v", rows[0][2], rows[1][2])
	}
	if !data.IsMissing(rows[2][2]) {
		t.Fatal("missing nominal must stay missing")
	}
	scores := Score(dt, rows)
	if !Finite(scores) {
		t.Fatalf("scores not finite: %v", scores)
	}
	for i, row := range rows {
		if scores[i] != dt.PredictProb(row) {
			t.Fatal("Score diverges from direct prediction")
		}
	}

	// Kind conflict: a nominal input column for an interval schema column.
	bad := data.NewBuilder("bad").Nominal("x1", "a")
	bad.Row(0)
	if _, err := m.MapDataset(bad.Build()); err == nil {
		t.Fatal("kind conflict not rejected")
	}

	// A binary schema column fed from an unannotated (interval) CSV column
	// must reject non-0/1 values instead of letting learners index per-class
	// tables out of range.
	badBin := data.NewBuilder("badbin").Interval("wet")
	badBin.Row(7)
	if _, err := m.MapDataset(badBin.Build()); err == nil {
		t.Fatal("out-of-range binary value not rejected")
	}
	okBin := data.NewBuilder("okbin").Interval("wet")
	okBin.Row(1)
	okBin.Row(data.Missing)
	if _, err := m.MapDataset(okBin.Build()); err != nil {
		t.Fatalf("0/1/missing binary values rejected: %v", err)
	}
}

func TestRowMapperValues(t *testing.T) {
	ds := synthDataset(t, 400, 9)
	dt, err := tree.Grow(ds, ds.MustAttrIndex("label"), treeCfg(ds))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New("vals", KindDecisionTree, dt, ds.Attrs(), 8, 9, "label", nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}
	row, err := m.MapValues(map[string]any{
		"x1":      1.5,
		"x2":      "0.25",
		"surface": "gravel",
		"wet":     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != 1.5 || row[1] != 0.25 || row[2] != 1 || row[3] != 1 {
		t.Fatalf("row = %v", row)
	}
	if !data.IsMissing(row[4]) || !data.IsMissing(row[5]) {
		t.Fatal("unset targets must be missing")
	}
	// Unseen nominal level scores as missing rather than erroring.
	row, err = m.MapValues(map[string]any{"surface": "marshmallow"})
	if err != nil {
		t.Fatal(err)
	}
	if !data.IsMissing(row[2]) {
		t.Fatal("unseen level must map to missing")
	}
	// Typos, numbers for nominals and bad binaries fail loudly.
	for name, vals := range map[string]map[string]any{
		"unknown attr":    {"aad": 12.0},
		"nominal number":  {"surface": 2.0},
		"bad binary":      {"wet": 3.0},
		"bad binary text": {"wet": "maybe"},
		"bad interval":    {"x1": "fast"},
		"bad type":        {"x1": []string{"no"}},
	} {
		if _, err := m.MapValues(vals); err == nil {
			t.Errorf("%s: not rejected", name)
		}
	}
}
