// Package artifact defines the versioned, deterministic JSON format that
// persists the study's trained learners — the deployable asset the paper's
// conclusion calls for ("develop deployment to embed with a strategic and
// operational decision support system"). An artifact carries everything a
// scoring service needs to answer queries without retraining: the learner
// kind and its fitted parameters, the full training row schema (attribute
// names, kinds and nominal levels, in training order), the crash-proneness
// threshold the target was derived at, the study seed, and the assessment
// metrics recorded at training time.
//
// Encoding is deterministic: the same fitted model always serializes to
// the same bytes (json.Marshal emits struct fields in declaration order,
// map keys sorted, and float64 values in their shortest exact form), so
// artifacts can be content-addressed, diffed and pinned in golden tests.
package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/mining/bayes"
	"roadcrash/internal/mining/ensemble"
	"roadcrash/internal/mining/logit"
	"roadcrash/internal/mining/m5"
	"roadcrash/internal/mining/neural"
	"roadcrash/internal/mining/tree"
	"roadcrash/internal/mining/zinb"
)

// FormatVersion is the current artifact format. Encoders write this
// version; decoders accept every version from 1 up to it (the layout has
// only grown — version 2 added the zinb, m5 and neural kinds, which a
// version-1 artifact therefore cannot carry). Bump it on any change to the
// layout.
const FormatVersion = 2

// Kind names the learner family a payload belongs to.
type Kind string

// The supported learner kinds, matching the models the study assesses.
const (
	KindDecisionTree   Kind = "decision-tree"   // chi-square classification tree
	KindRegressionTree Kind = "regression-tree" // F-test regression tree
	KindNaiveBayes     Kind = "naive-bayes"     // naive Bayes over encoded attributes
	KindLogistic       Kind = "logistic"        // logistic regression
	KindBagging        Kind = "bagging"         // bagged decision trees
	KindAdaBoost       Kind = "adaboost"        // boosted decision stumps/trees
	KindZINB           Kind = "zinb"            // zero-altered Poisson hurdle, scored as P(count > t)
	KindM5             Kind = "m5"              // M5 model tree with per-leaf ridge regressions
	KindNeural         Kind = "neural"          // single hidden-layer perceptron
	KindHotspot        Kind = "hotspot"         // grid-cell risk surface scored on (x_km, y_km)
)

func (k Kind) valid() bool {
	switch k {
	case KindDecisionTree, KindRegressionTree, KindNaiveBayes, KindLogistic, KindBagging, KindAdaBoost,
		KindZINB, KindM5, KindNeural, KindHotspot:
		return true
	}
	return false
}

// minVersion returns the first format version able to carry the kind: the
// count/regression learners and the hotspot surface arrived with version 2,
// so a version-1 artifact claiming one is corrupt by construction.
func (k Kind) minVersion() int {
	switch k {
	case KindZINB, KindM5, KindNeural, KindHotspot:
		return 2
	}
	return 1
}

// Attr is one column of the training schema.
type Attr struct {
	Name   string   `json:"name"`
	Kind   string   `json:"kind"` // interval | nominal | binary
	Levels []string `json:"levels,omitempty"`
}

// Artifact is one persisted model.
type Artifact struct {
	FormatVersion int                `json:"format_version"`
	Name          string             `json:"name"`
	Kind          Kind               `json:"kind"`
	Threshold     int                `json:"threshold"`
	Seed          uint64             `json:"seed"`
	Target        string             `json:"target"`
	Schema        []Attr             `json:"schema"`
	Metrics       map[string]float64 `json:"metrics,omitempty"`
	Payload       json.RawMessage    `json:"payload"`
}

// Scorer is the prediction interface every decodable learner satisfies
// (structurally identical to eval.Classifier, declared here so the
// artifact layer does not depend on the evaluation harness).
type Scorer interface {
	PredictProb(row []float64) float64
}

// SchemaOf converts a dataset attribute schema into the artifact form.
func SchemaOf(attrs []data.Attribute) []Attr {
	out := make([]Attr, len(attrs))
	for i, a := range attrs {
		out[i] = Attr{Name: a.Name, Kind: a.Kind.String(), Levels: append([]string(nil), a.Levels...)}
	}
	return out
}

// DataSchema converts the artifact schema back into dataset attributes.
func (a *Artifact) DataSchema() ([]data.Attribute, error) {
	out := make([]data.Attribute, len(a.Schema))
	for i, at := range a.Schema {
		kind, err := data.KindFromString(at.Kind)
		if err != nil {
			return nil, fmt.Errorf("artifact: schema attribute %q: %w", at.Name, err)
		}
		out[i] = data.Attribute{Name: at.Name, Kind: kind, Levels: append([]string(nil), at.Levels...)}
	}
	return out, nil
}

// New assembles an artifact from a fitted model. The model must be one of
// the supported learner types; schema is the full training row schema in
// training order.
func New(name string, kind Kind, model Scorer, schema []data.Attribute, threshold int, seed uint64, target string, metrics map[string]float64) (*Artifact, error) {
	if name == "" {
		return nil, fmt.Errorf("artifact: empty model name")
	}
	if !kind.valid() {
		return nil, fmt.Errorf("artifact: unknown kind %q", kind)
	}
	if len(schema) == 0 {
		return nil, fmt.Errorf("artifact: empty schema")
	}
	payload, err := json.Marshal(model)
	if err != nil {
		return nil, fmt.Errorf("artifact: marshaling %s payload: %w", kind, err)
	}
	return &Artifact{
		FormatVersion: FormatVersion,
		Name:          name,
		Kind:          kind,
		Threshold:     threshold,
		Seed:          seed,
		Target:        target,
		Schema:        SchemaOf(schema),
		Metrics:       metrics,
		Payload:       payload,
	}, nil
}

// Model decodes the payload into its learner and validates it against the
// header schema — tree payloads must embed exactly the header schema
// (names, kinds and nominal level order all matter for routing), and
// column-indexed learners must stay inside the header row width — so
// corrupt artifacts fail here, at load, not on the first scoring request.
// Each call returns a freshly decoded model.
//
// A learner's UnmarshalJSON is called directly rather than through
// json.Unmarshal, which would first validate and skip the payload bytes
// before handing them to that same method, and the method's own
// json.Unmarshal validates them anyway. geo.Model has no decoder of its
// own, so the hotspot kind goes through json.Unmarshal.
func (a *Artifact) Model() (Scorer, error) {
	var s Scorer
	switch a.Kind {
	case KindDecisionTree, KindRegressionTree:
		t := new(tree.Tree)
		if err := t.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := a.checkTreeSchema(t); err != nil {
			return nil, err
		}
		s = t
	case KindNaiveBayes:
		m := new(bayes.Model)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := m.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		s = m
	case KindLogistic:
		m := new(logit.Model)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := m.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		s = m
	case KindBagging:
		m := new(ensemble.Bagging)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := a.checkTreeSchemas(m.Members()); err != nil {
			return nil, err
		}
		s = m
	case KindAdaBoost:
		m := new(ensemble.AdaBoost)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := a.checkTreeSchemas(m.Members()); err != nil {
			return nil, err
		}
		s = m
	case KindZINB:
		c := new(zinb.ThresholdClassifier)
		if err := c.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := c.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if c.Threshold() != a.Threshold {
			return nil, fmt.Errorf("artifact %q: payload classifies count > %d, header threshold is %d",
				a.Name, c.Threshold(), a.Threshold)
		}
		s = *c
	case KindM5:
		m := new(m5.Model)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := m.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := a.checkTreeSchema(m.Structure()); err != nil {
			return nil, err
		}
		s = m
	case KindNeural:
		m := new(neural.Model)
		if err := m.UnmarshalJSON(a.Payload); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := m.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		s = m
	case KindHotspot:
		m := new(geo.Model)
		if err := json.Unmarshal(a.Payload, m); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		if err := m.Validate(len(a.Schema)); err != nil {
			return nil, fmt.Errorf("artifact %q: %w", a.Name, err)
		}
		s = m
	default:
		return nil, fmt.Errorf("artifact %q: unknown kind %q", a.Name, a.Kind)
	}
	return s, nil
}

// checkTreeSchema requires the tree's embedded schema to equal the header
// schema exactly: a drifted name, kind or nominal level order would route
// every mapped row down the wrong branches with no error anywhere.
func (a *Artifact) checkTreeSchema(t *tree.Tree) error {
	attrs := t.SchemaAttrs()
	if len(attrs) != len(a.Schema) {
		return fmt.Errorf("artifact %q: tree schema has %d columns, header schema %d", a.Name, len(attrs), len(a.Schema))
	}
	for j, at := range attrs {
		h := a.Schema[j]
		if at.Name != h.Name || at.Kind.String() != h.Kind {
			return fmt.Errorf("artifact %q: tree schema column %d is %s %q, header says %s %q",
				a.Name, j, at.Kind, at.Name, h.Kind, h.Name)
		}
		if len(at.Levels) != len(h.Levels) {
			return fmt.Errorf("artifact %q: column %q has %d levels in the tree, %d in the header",
				a.Name, at.Name, len(at.Levels), len(h.Levels))
		}
		for l, lv := range at.Levels {
			if lv != h.Levels[l] {
				return fmt.Errorf("artifact %q: column %q level %d is %q in the tree, %q in the header",
					a.Name, at.Name, l, lv, h.Levels[l])
			}
		}
	}
	return nil
}

func (a *Artifact) checkTreeSchemas(trees []*tree.Tree) error {
	for i, t := range trees {
		if err := a.checkTreeSchema(t); err != nil {
			return fmt.Errorf("ensemble member %d: %w", i, err)
		}
	}
	return nil
}

func (a *Artifact) validate() error {
	if a.FormatVersion < 1 || a.FormatVersion > FormatVersion {
		return fmt.Errorf("artifact: format version %d, this build reads 1 through %d", a.FormatVersion, FormatVersion)
	}
	if a.Name == "" {
		return fmt.Errorf("artifact: empty model name")
	}
	if !a.Kind.valid() {
		return fmt.Errorf("artifact: unknown kind %q", a.Kind)
	}
	if a.FormatVersion < a.Kind.minVersion() {
		return fmt.Errorf("artifact: kind %q needs format version %d, artifact says %d",
			a.Kind, a.Kind.minVersion(), a.FormatVersion)
	}
	if a.Target == "" {
		return fmt.Errorf("artifact: empty target attribute")
	}
	if len(a.Schema) == 0 {
		return fmt.Errorf("artifact: empty schema")
	}
	seen := make(map[string]bool, len(a.Schema))
	for _, at := range a.Schema {
		if at.Name == "" {
			return fmt.Errorf("artifact: schema attribute with empty name")
		}
		if seen[at.Name] {
			return fmt.Errorf("artifact: duplicate schema attribute %q", at.Name)
		}
		seen[at.Name] = true
	}
	if _, err := a.DataSchema(); err != nil {
		return err
	}
	if len(a.Payload) == 0 {
		return fmt.Errorf("artifact: empty payload")
	}
	return nil
}

// Encode writes the artifact as indented JSON. Output is deterministic:
// encoding the same artifact twice yields identical bytes.
func (a *Artifact) Encode(w io.Writer) error {
	if err := a.validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: encoding %q: %w", a.Name, err)
	}
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("artifact: writing %q: %w", a.Name, err)
	}
	return nil
}

// Decode parses and validates an artifact, including an eager decode of
// the model payload so corrupt artifacts fail at load time rather than on
// the first scoring request. The reader must hold exactly one artifact:
// anything but whitespace after it is an error.
func Decode(r io.Reader) (*Artifact, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("artifact: reading: %w", err)
	}
	a, _, err := decodeModel(b)
	return a, err
}

// decodeModel is Decode over the artifact's bytes that also returns the
// learner the eager payload decode produced. json.Unmarshal rejects any
// data but whitespace after the artifact, so a file with a second value
// or garbage appended fails here.
func decodeModel(b []byte) (*Artifact, Scorer, error) {
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, nil, fmt.Errorf("artifact: decoding: %w", err)
	}
	if err := a.validate(); err != nil {
		return nil, nil, err
	}
	s, err := a.Model()
	if err != nil {
		return nil, nil, err
	}
	return &a, s, nil
}

// WriteFile encodes the artifact to path.
func WriteFile(path string, a *Artifact) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile decodes the artifact at path.
func ReadFile(path string) (*Artifact, error) {
	a, _, _, err := ReadFileModel(path)
	return a, err
}

// ReadFileModel reads the file at path once and decodes those bytes. It
// returns the artifact, the learner its validation decoded (the model
// Model would return), and the file's bytes, so a loader that serves the
// learner decodes the payload once and can identify the artifact by its
// bytes without encoding it again.
func ReadFileModel(path string) (*Artifact, Scorer, []byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("artifact: %w", err)
	}
	a, s, err := decodeModel(b)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("artifact: %s: %w", path, err)
	}
	return a, s, b, nil
}
