package zinb

import (
	"encoding/json"
	"fmt"

	"roadcrash/internal/mining/encode"
)

type modelJSON struct {
	Encoder       *encode.Encoder `json:"encoder"`
	HurdleWeights []float64       `json:"hurdle_weights"`
	CountWeights  []float64       `json:"count_weights"`
}

// Validate checks that the fitted design only references source columns
// inside a row schema of nAttrs columns.
func (m *Model) Validate(nAttrs int) error {
	if m.enc == nil {
		return fmt.Errorf("zinb: model has no encoder")
	}
	return m.enc.Validate(nAttrs)
}

// MarshalJSON serializes the hurdle model: the shared encoder plus the two
// coefficient vectors (hurdle logistic, truncated-Poisson log-linear).
func (m *Model) MarshalJSON() ([]byte, error) {
	if m.enc == nil {
		return nil, fmt.Errorf("zinb: marshaling an unfitted model")
	}
	return json.Marshal(modelJSON{Encoder: m.enc, HurdleWeights: m.hurdleW, CountWeights: m.countW})
}

// UnmarshalJSON restores a model serialized by MarshalJSON.
func (m *Model) UnmarshalJSON(b []byte) error {
	var j modelJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("zinb: %w", err)
	}
	if j.Encoder == nil {
		return fmt.Errorf("zinb: serialized model has no encoder")
	}
	if len(j.HurdleWeights) != j.Encoder.Width() {
		return fmt.Errorf("zinb: %d hurdle weights but design width %d", len(j.HurdleWeights), j.Encoder.Width())
	}
	if len(j.CountWeights) != j.Encoder.Width() {
		return fmt.Errorf("zinb: %d count weights but design width %d", len(j.CountWeights), j.Encoder.Width())
	}
	m.enc = j.Encoder
	m.hurdleW = j.HurdleWeights
	m.countW = j.CountWeights
	return nil
}

type classifierJSON struct {
	Model     *Model `json:"model"`
	Threshold int    `json:"threshold"`
}

// Threshold returns the count boundary t the classifier scores
// P(count > t) at.
func (c ThresholdClassifier) Threshold() int { return c.t }

// Validate checks the underlying count model against a row schema of
// nAttrs columns.
func (c ThresholdClassifier) Validate(nAttrs int) error {
	if c.m == nil {
		return fmt.Errorf("zinb: classifier has no count model")
	}
	return c.m.Validate(nAttrs)
}

// MarshalJSON serializes the thresholded classifier: the count model plus
// the boundary it classifies count > t at.
func (c ThresholdClassifier) MarshalJSON() ([]byte, error) {
	if c.m == nil {
		return nil, fmt.Errorf("zinb: marshaling an empty threshold classifier")
	}
	return json.Marshal(classifierJSON{Model: c.m, Threshold: c.t})
}

// UnmarshalJSON restores a classifier serialized by MarshalJSON.
func (c *ThresholdClassifier) UnmarshalJSON(b []byte) error {
	var j classifierJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return fmt.Errorf("zinb: %w", err)
	}
	if j.Model == nil {
		return fmt.Errorf("zinb: serialized classifier has no count model")
	}
	if j.Threshold < 0 {
		return fmt.Errorf("zinb: negative count threshold %d", j.Threshold)
	}
	c.m = j.Model
	c.t = j.Threshold
	return nil
}
