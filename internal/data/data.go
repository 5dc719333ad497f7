// Package data implements the dataset engine underneath the road-crash
// study: a columnar table of interval and nominal attributes with explicit
// missing values, plus the preparation operations the paper's CRISP-DM data
// phase needs — filtering, train/validation splits, stratified sampling,
// under-sampling, k-fold partitioning and binary-target derivation from
// crash counts.
//
// Values are stored as float64 columns. Nominal values hold the index of
// their level; missing values are NaN for every attribute kind, matching
// the paper's choice to keep missing values as first-class data ("the
// missing values were treated as valid data").
package data

import (
	"fmt"
	"math"
)

// Kind classifies an attribute the way the paper's modeling tools do.
type Kind int

const (
	// Interval is a numeric attribute used as-is (the paper avoided
	// discretization: "interval values were retained").
	Interval Kind = iota
	// Nominal is a categorical attribute with an enumerated level set.
	Nominal
	// Binary is a two-class logical target or flag (false=0, true=1).
	Binary
)

// String returns the attribute kind name.
func (k Kind) String() string {
	switch k {
	case Interval:
		return "interval"
	case Nominal:
		return "nominal"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindFromString parses a kind name produced by Kind.String — the single
// inverse shared by the CSV header and every model-serialization decoder.
func KindFromString(s string) (Kind, error) {
	switch s {
	case "interval":
		return Interval, nil
	case "nominal":
		return Nominal, nil
	case "binary":
		return Binary, nil
	}
	return 0, fmt.Errorf("data: unknown attribute kind %q", s)
}

// Attribute describes one column of a dataset.
type Attribute struct {
	Name   string
	Kind   Kind
	Levels []string // level names for Nominal attributes
}

// Missing is the canonical missing-value marker.
var Missing = math.NaN()

// IsMissing reports whether v is the missing marker.
func IsMissing(v float64) bool { return math.IsNaN(v) }

// Dataset is an immutable-by-convention columnar table. Mutating methods
// return new datasets; the underlying column slices are copied on write.
type Dataset struct {
	name  string
	attrs []Attribute
	cols  [][]float64
	n     int
}

// Builder assembles a Dataset column-schema first, then row by row.
type Builder struct {
	name  string
	attrs []Attribute
	index map[string]int
	cols  [][]float64
	n     int
}

// NewBuilder starts a dataset with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, index: make(map[string]int)}
}

// Interval declares an interval attribute. It panics on duplicate names.
func (b *Builder) Interval(name string) *Builder {
	return b.attr(Attribute{Name: name, Kind: Interval})
}

// Nominal declares a nominal attribute with its level set.
func (b *Builder) Nominal(name string, levels ...string) *Builder {
	return b.attr(Attribute{Name: name, Kind: Nominal, Levels: append([]string(nil), levels...)})
}

// Binary declares a binary attribute.
func (b *Builder) Binary(name string) *Builder { return b.attr(Attribute{Name: name, Kind: Binary}) }

func (b *Builder) attr(a Attribute) *Builder {
	if b.n > 0 {
		panic("data: cannot add attributes after rows")
	}
	if _, dup := b.index[a.Name]; dup {
		panic(fmt.Sprintf("data: duplicate attribute %q", a.Name))
	}
	b.index[a.Name] = len(b.attrs)
	b.attrs = append(b.attrs, a)
	b.cols = append(b.cols, nil)
	return b
}

// Row appends one instance. values must have one entry per attribute, in
// declaration order; use Missing (NaN) for absent values. Binary values
// must be 0, 1 or missing; nominal values must be valid level indices or
// missing.
func (b *Builder) Row(values ...float64) *Builder {
	if len(values) != len(b.attrs) {
		panic(fmt.Sprintf("data: row has %d values, schema has %d attributes", len(values), len(b.attrs)))
	}
	for i, v := range values {
		if IsMissing(v) {
			b.cols[i] = append(b.cols[i], Missing)
			continue
		}
		switch a := b.attrs[i]; a.Kind {
		case Binary:
			if v != 0 && v != 1 {
				panic(fmt.Sprintf("data: binary attribute %q got %v", a.Name, v))
			}
		case Nominal:
			iv := int(v)
			if float64(iv) != v || iv < 0 || iv >= len(a.Levels) {
				panic(fmt.Sprintf("data: nominal attribute %q got invalid level %v", a.Name, v))
			}
		}
		b.cols[i] = append(b.cols[i], v)
	}
	b.n++
	return b
}

// Build finalizes the dataset. The builder must not be reused afterwards.
func (b *Builder) Build() *Dataset {
	return &Dataset{name: b.name, attrs: b.attrs, cols: b.cols, n: b.n}
}

// SchemaDataset builds a zero-instance dataset carrying only the given
// attribute schema. Decoded model artifacts use it to restore the schema
// reference that rule rendering and row layout need without shipping any
// training data.
func SchemaDataset(name string, attrs []Attribute) *Dataset {
	copied := make([]Attribute, len(attrs))
	for i, a := range attrs {
		copied[i] = Attribute{Name: a.Name, Kind: a.Kind, Levels: append([]string(nil), a.Levels...)}
	}
	return &Dataset{name: name, attrs: copied, cols: make([][]float64, len(copied))}
}

// Name returns the dataset's name.
func (d *Dataset) Name() string { return d.name }

// WithName returns a shallow copy under a new name.
func (d *Dataset) WithName(name string) *Dataset {
	c := *d
	c.name = name
	return &c
}

// Len returns the instance count.
func (d *Dataset) Len() int { return d.n }

// NumAttrs returns the attribute count.
func (d *Dataset) NumAttrs() int { return len(d.attrs) }

// Attrs returns the attribute schema. The caller must not modify it.
func (d *Dataset) Attrs() []Attribute { return d.attrs }

// Attr returns attribute j.
func (d *Dataset) Attr(j int) Attribute { return d.attrs[j] }

// AttrIndex returns the index of the named attribute, or an error.
func (d *Dataset) AttrIndex(name string) (int, error) {
	for j, a := range d.attrs {
		if a.Name == name {
			return j, nil
		}
	}
	return 0, fmt.Errorf("data: dataset %q has no attribute %q", d.name, name)
}

// MustAttrIndex is AttrIndex for static attribute names; it panics when the
// attribute does not exist.
func (d *Dataset) MustAttrIndex(name string) int {
	j, err := d.AttrIndex(name)
	if err != nil {
		panic(err)
	}
	return j
}

// Col returns column j. The caller must not modify it.
func (d *Dataset) Col(j int) []float64 { return d.cols[j] }

// ColByName returns the named column.
func (d *Dataset) ColByName(name string) ([]float64, error) {
	j, err := d.AttrIndex(name)
	if err != nil {
		return nil, err
	}
	return d.cols[j], nil
}

// At returns the value of attribute j for instance i.
func (d *Dataset) At(i, j int) float64 { return d.cols[j][i] }

// Row copies instance i into dst (allocated when nil) and returns it.
func (d *Dataset) Row(i int, dst []float64) []float64 {
	if cap(dst) < len(d.attrs) {
		dst = make([]float64, len(d.attrs))
	}
	dst = dst[:len(d.attrs)]
	for j := range d.attrs {
		dst[j] = d.cols[j][i]
	}
	return dst
}

// Subset returns a new dataset holding the given instance indices, in order.
// Indices may repeat (useful for bootstrap resampling).
func (d *Dataset) Subset(name string, idx []int) *Dataset {
	cols := make([][]float64, len(d.cols))
	for j := range d.cols {
		col := make([]float64, len(idx))
		src := d.cols[j]
		for k, i := range idx {
			col[k] = src[i]
		}
		cols[j] = col
	}
	return &Dataset{name: name, attrs: d.attrs, cols: cols, n: len(idx)}
}

// DropAttrs returns a dataset without the named attributes. Unknown names
// are reported as an error so experiment configs fail loudly.
func (d *Dataset) DropAttrs(names ...string) (*Dataset, error) {
	drop := make(map[int]bool, len(names))
	for _, name := range names {
		j, err := d.AttrIndex(name)
		if err != nil {
			return nil, err
		}
		drop[j] = true
	}
	var attrs []Attribute
	var cols [][]float64
	for j := range d.attrs {
		if drop[j] {
			continue
		}
		attrs = append(attrs, d.attrs[j])
		cols = append(cols, d.cols[j])
	}
	return &Dataset{name: d.name, attrs: attrs, cols: cols, n: d.n}, nil
}

// KeepAttrs returns a dataset with only the named attributes, in the given
// order.
func (d *Dataset) KeepAttrs(names ...string) (*Dataset, error) {
	var attrs []Attribute
	var cols [][]float64
	for _, name := range names {
		j, err := d.AttrIndex(name)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, d.attrs[j])
		cols = append(cols, d.cols[j])
	}
	return &Dataset{name: d.name, attrs: attrs, cols: cols, n: d.n}, nil
}

// AppendColumn returns a dataset with an extra column. values must have one
// entry per instance.
func (d *Dataset) AppendColumn(attr Attribute, values []float64) (*Dataset, error) {
	if len(values) != d.n {
		return nil, fmt.Errorf("data: column %q has %d values, dataset has %d instances", attr.Name, len(values), d.n)
	}
	for _, a := range d.attrs {
		if a.Name == attr.Name {
			return nil, fmt.Errorf("data: attribute %q already exists", attr.Name)
		}
	}
	attrs := append(append([]Attribute(nil), d.attrs...), attr)
	cols := append(append([][]float64(nil), d.cols...), append([]float64(nil), values...))
	return &Dataset{name: d.name, attrs: attrs, cols: cols, n: d.n}, nil
}

// Concat stacks other below d. Schemas must match exactly.
func (d *Dataset) Concat(name string, other *Dataset) (*Dataset, error) {
	if len(d.attrs) != len(other.attrs) {
		return nil, fmt.Errorf("data: concat schema mismatch: %d vs %d attributes", len(d.attrs), len(other.attrs))
	}
	for j := range d.attrs {
		if d.attrs[j].Name != other.attrs[j].Name || d.attrs[j].Kind != other.attrs[j].Kind {
			return nil, fmt.Errorf("data: concat schema mismatch at attribute %d (%q vs %q)", j, d.attrs[j].Name, other.attrs[j].Name)
		}
	}
	cols := make([][]float64, len(d.cols))
	for j := range d.cols {
		col := make([]float64, 0, d.n+other.n)
		col = append(col, d.cols[j]...)
		col = append(col, other.cols[j]...)
		cols[j] = col
	}
	return &Dataset{name: name, attrs: d.attrs, cols: cols, n: d.n + other.n}, nil
}

// MissingCount returns the number of missing values in column j.
func (d *Dataset) MissingCount(j int) int {
	c := 0
	for _, v := range d.cols[j] {
		if IsMissing(v) {
			c++
		}
	}
	return c
}
