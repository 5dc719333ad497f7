// Package encode turns datasets into dense numeric design matrices for the
// learners that cannot consume raw attributes directly (logistic
// regression, neural networks, M5 leaf models and k-means). Interval
// attributes are standardized and mean-imputed, nominal attributes are
// one-hot encoded, and binary attributes pass through with missing values
// imputed to the training prevalence.
package encode

import (
	"fmt"
	"math"

	"roadcrash/internal/data"
)

// Encoder is a fitted feature mapping. Fit on training data once, then
// Transform any row with the same schema.
type Encoder struct {
	cols     []int // source columns, parallel to specs
	specs    []colSpec
	width    int
	addBias  bool
	colNames []string
}

type colSpec struct {
	kind    data.Kind
	mean    float64 // imputation value / standardization center
	sd      float64
	nLevels int
	offset  int // first output index for this column
}

// Options configures encoding.
type Options struct {
	// Bias prepends a constant-1 feature (for linear models).
	Bias bool
	// Exclude lists attribute names to leave out (targets, bookkeeping).
	Exclude []string
}

// Fit builds an encoder from the dataset schema and statistics.
func Fit(ds *data.Dataset, opt Options) (*Encoder, error) {
	excluded := make(map[string]bool, len(opt.Exclude))
	for _, name := range opt.Exclude {
		if _, err := ds.AttrIndex(name); err != nil {
			return nil, err
		}
		excluded[name] = true
	}
	e := &Encoder{addBias: opt.Bias}
	if opt.Bias {
		e.width = 1
		e.colNames = append(e.colNames, "(bias)")
	}
	for j, a := range ds.Attrs() {
		if excluded[a.Name] {
			continue
		}
		spec := colSpec{kind: a.Kind, offset: e.width, sd: 1}
		col := ds.Col(j)
		switch a.Kind {
		case data.Interval, data.Binary:
			var sum, sumSq float64
			n := 0
			for _, v := range col {
				if data.IsMissing(v) {
					continue
				}
				sum += v
				sumSq += v * v
				n++
			}
			if n > 0 {
				spec.mean = sum / float64(n)
				if a.Kind == data.Interval {
					variance := sumSq/float64(n) - spec.mean*spec.mean
					if sd := math.Sqrt(math.Max(variance, 0)); sd > 0 {
						spec.sd = sd
					}
				}
			}
			e.width++
			e.colNames = append(e.colNames, a.Name)
		case data.Nominal:
			if len(a.Levels) == 0 {
				return nil, fmt.Errorf("encode: nominal attribute %q has no levels", a.Name)
			}
			spec.nLevels = len(a.Levels)
			for _, lv := range a.Levels {
				e.colNames = append(e.colNames, a.Name+"="+lv)
			}
			e.width += len(a.Levels)
		}
		e.cols = append(e.cols, j)
		e.specs = append(e.specs, spec)
	}
	if e.width == 0 || (opt.Bias && e.width == 1) {
		return nil, fmt.Errorf("encode: no features left after exclusions")
	}
	return e, nil
}

// Width returns the encoded feature count.
func (e *Encoder) Width() int { return e.width }

// Transform encodes one raw dataset row (full schema order) into dst,
// allocating when dst is too small.
func (e *Encoder) Transform(row []float64, dst []float64) []float64 {
	if cap(dst) < e.width {
		dst = make([]float64, e.width)
	}
	dst = dst[:e.width]
	for i := range dst {
		dst[i] = 0
	}
	if e.addBias {
		dst[0] = 1
	}
	for k, j := range e.cols {
		spec := e.specs[k]
		v := row[j]
		switch spec.kind {
		case data.Interval:
			if data.IsMissing(v) {
				v = spec.mean
			}
			dst[spec.offset] = (v - spec.mean) / spec.sd
		case data.Binary:
			if data.IsMissing(v) {
				v = spec.mean
			}
			dst[spec.offset] = v
		case data.Nominal:
			if data.IsMissing(v) {
				// Spread a missing nominal uniformly over its levels.
				frac := 1 / float64(spec.nLevels)
				for l := 0; l < spec.nLevels; l++ {
					dst[spec.offset+l] = frac
				}
			} else {
				dst[spec.offset+int(v)] = 1
			}
		}
	}
	return dst
}

// Matrix encodes the whole dataset as a dense row-major matrix.
func (e *Encoder) Matrix(ds *data.Dataset) [][]float64 {
	out := make([][]float64, ds.Len())
	raw := make([]float64, ds.NumAttrs())
	for i := range out {
		raw = ds.Row(i, raw)
		out[i] = e.Transform(raw, nil)
	}
	return out
}
