package data

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// This file is the out-of-core half of the dataset engine: fixed-capacity
// columnar row batches, pull-style batch readers over CSV and NDJSON
// sources, and the matching batch writers. Readers hand out one reusable
// batch, so a full pass over a million-row feed allocates what a single
// chunk needs — ingestion and scoring memory is bounded by the chunk size,
// not the dataset size.

// DefaultChunkSize is the batch capacity used when a caller passes a
// non-positive chunk size. It is large enough to amortize per-batch
// overhead and small enough that a fully populated batch of the study
// schema stays well under a megabyte.
const DefaultChunkSize = 4096

// Batch is a fixed-capacity columnar slab of rows sharing one attribute
// schema — the unit of work of the streaming pipeline. Producers reuse a
// batch across chunks (Reset keeps the column capacity), so consumers must
// finish with a batch before asking its reader for the next one.
type Batch struct {
	attrs []Attribute
	cols  [][]float64
	n     int
}

// NewBatch returns an empty batch over attrs with the given row capacity
// preallocated per column. The attrs slice is shared, not copied: readers
// that discover nominal levels incrementally update the shared schema and
// every batch sees the growth.
func NewBatch(attrs []Attribute, capacity int) *Batch {
	if capacity <= 0 {
		capacity = DefaultChunkSize
	}
	cols := make([][]float64, len(attrs))
	for j := range cols {
		cols[j] = make([]float64, 0, capacity)
	}
	return &Batch{attrs: attrs, cols: cols}
}

// Len returns the number of rows currently in the batch.
func (b *Batch) Len() int { return b.n }

// Attrs returns the batch schema. Nominal level sets may grow between
// batches of one reader; they never shrink or reorder.
func (b *Batch) Attrs() []Attribute { return b.attrs }

// Col returns column j, length Len. The caller must not modify it.
func (b *Batch) Col(j int) []float64 { return b.cols[j] }

// At returns the value of attribute j for batch row i.
func (b *Batch) At(i, j int) float64 { return b.cols[j][i] }

// Reset empties the batch, keeping the allocated column capacity for the
// next chunk.
func (b *Batch) Reset() {
	for j := range b.cols {
		b.cols[j] = b.cols[j][:0]
	}
	b.n = 0
}

// AppendRow appends one row given in schema order. Unlike Builder.Row it
// does not validate cell kinds — batch producers own their values and the
// check would dominate the hot loop.
func (b *Batch) AppendRow(values []float64) {
	if len(values) != len(b.attrs) {
		panic(fmt.Sprintf("data: batch row has %d values, schema has %d attributes", len(values), len(b.attrs)))
	}
	for j, v := range values {
		b.cols[j] = append(b.cols[j], v)
	}
	b.n++
}

// BatchReader is the pull iterator behind out-of-core ingestion: Next
// returns batches until io.EOF. The returned batch is owned by the reader
// and only valid until the following Next call.
type BatchReader interface {
	// Next returns the next chunk of rows, or io.EOF when the source is
	// exhausted. Any other error aborts the stream.
	Next() (*Batch, error)
	// Attrs returns the reader's schema. Nominal level sets are discovered
	// incrementally and may grow between Next calls (append-only, so level
	// indices already handed out stay valid).
	Attrs() []Attribute
}

// ReadAll drains a batch reader into an in-memory dataset — the bridge
// from the streaming layer back to the materialized API the modeling code
// uses. It consumes the reader.
func ReadAll(name string, br BatchReader) (*Dataset, error) {
	var cols [][]float64
	n := 0
	for {
		b, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if cols == nil {
			cols = make([][]float64, len(b.Attrs()))
		}
		for j := range cols {
			cols[j] = append(cols[j], b.Col(j)...)
		}
		n += b.Len()
	}
	attrs := br.Attrs()
	copied := make([]Attribute, len(attrs))
	for i, a := range attrs {
		copied[i] = Attribute{Name: a.Name, Kind: a.Kind, Levels: append([]string(nil), a.Levels...)}
	}
	if cols == nil {
		cols = make([][]float64, len(copied))
	}
	return &Dataset{name: name, attrs: copied, cols: cols, n: n}, nil
}

// CSVBatchReader streams a dataset CSV (the WriteCSV layout, documented in
// docs/DATA.md) as columnar batches. Nominal levels are interned in data
// order exactly as ReadCSV does — ReadCSV itself is ReadAll over this
// reader — so a chunked pass and an in-memory pass see identical values.
type CSVBatchReader struct {
	cr         *csv.Reader
	attrs      []Attribute
	levelIndex []map[string]int
	batch      *Batch
	row        int // rows parsed so far, for error positions
	done       bool
}

// NewCSVBatchReader parses the header and prepares a reader emitting
// batches of up to chunk rows (chunk <= 0 selects DefaultChunkSize).
func NewCSVBatchReader(r io.Reader, chunk int) (*CSVBatchReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("data: reading CSV header: %w", err)
	}
	if len(header) > 0 {
		header[0] = strings.TrimPrefix(header[0], "\ufeff")
	}
	attrs := make([]Attribute, len(header))
	levelIndex := make([]map[string]int, len(header))
	for j, h := range header {
		attrName, kind := h, "interval"
		if cut := strings.LastIndex(h, ":"); cut >= 0 {
			attrName, kind = h[:cut], strings.TrimSpace(h[cut+1:])
		}
		attrs[j].Name = strings.TrimSpace(attrName)
		k, err := KindFromString(kind)
		if err != nil {
			return nil, fmt.Errorf("data: column %q has unknown kind %q", attrs[j].Name, kind)
		}
		attrs[j].Kind = k
		if k == Nominal {
			levelIndex[j] = make(map[string]int)
		}
	}
	return &CSVBatchReader{
		cr:         cr,
		attrs:      attrs,
		levelIndex: levelIndex,
		batch:      NewBatch(attrs, chunk),
	}, nil
}

// Attrs returns the schema parsed from the header. Nominal level sets grow
// as levels are discovered in the data.
func (r *CSVBatchReader) Attrs() []Attribute { return r.attrs }

// Next fills the reader's batch with up to its chunk size of rows.
func (r *CSVBatchReader) Next() (*Batch, error) {
	if r.done {
		return nil, io.EOF
	}
	b := r.batch
	b.Reset()
	for len(b.cols) == 0 || b.n < cap(b.cols[0]) {
		record, err := r.cr.Read()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("data: reading CSV row %d: %w", r.row, err)
		}
		if len(record) != len(r.attrs) {
			return nil, fmt.Errorf("data: CSV row %d has %d fields, header has %d", r.row, len(record), len(r.attrs))
		}
		for j, cell := range record {
			v, err := r.parseCell(j, cell)
			if err != nil {
				return nil, err
			}
			b.cols[j] = append(b.cols[j], v)
		}
		b.n++
		r.row++
		if len(b.cols) == 0 {
			// A zero-column schema has no row storage; without this guard
			// the row loop above could not terminate on capacity.
			break
		}
	}
	if b.n == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// parseCell converts one CSV cell to its column value, interning new
// nominal levels.
func (r *CSVBatchReader) parseCell(j int, cell string) (float64, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" || cell == "?" {
		return Missing, nil
	}
	switch r.attrs[j].Kind {
	case Nominal:
		idx, ok := r.levelIndex[j][cell]
		if !ok {
			idx = len(r.attrs[j].Levels)
			r.attrs[j].Levels = append(r.attrs[j].Levels, cell)
			r.levelIndex[j][cell] = idx
		}
		return float64(idx), nil
	case Binary:
		switch strings.ToLower(cell) {
		case "0", "false", "no":
			return 0, nil
		case "1", "true", "yes":
			return 1, nil
		default:
			return 0, fmt.Errorf("data: CSV row %d: binary column %q got %q", r.row, r.attrs[j].Name, cell)
		}
	default:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return 0, fmt.Errorf("data: CSV row %d: interval column %q got %q", r.row, r.attrs[j].Name, cell)
		}
		return v, nil
	}
}

// maxNDJSONLine caps one NDJSON line (1 MiB) so a malformed feed cannot
// buffer unboundedly inside the line scanner.
const maxNDJSONLine = 1 << 20

// NDJSONBatchReader streams newline-delimited JSON rows — one object per
// line mapping attribute name -> value — as columnar batches laid out in a
// caller-supplied schema (for scoring, the model artifact's training
// schema). Value conventions per kind: numbers for interval attributes
// (or a parsable numeric string), level names for nominal attributes
// (unseen names are interned as new levels), and 0/1, true/false or the
// strings "0"/"1"/"true"/"false"/"yes"/"no" for binary attributes.
// Missing values are null or simply omitted keys; unknown keys are
// rejected so client typos fail loudly, and so is a key repeated within
// one row — a generic JSON decode would silently keep the last value,
// scoring {"aadt":1,"aadt":9} as 9 with no error anywhere. Lines holding
// only JSON whitespace (space, tab, CR) are skipped; any other byte around
// a row, \v or U+00A0 say, rejects it as /score does. Rows are parsed by
// the hand-rolled scanner in ndjson.go, which allocates nothing per row in
// steady state.
type NDJSONBatchReader struct {
	sc    *bufio.Scanner
	dec   rowDecoder
	batch *Batch
	row   int
	done  bool
}

// NewNDJSONBatchReader prepares a reader over r emitting batches of up to
// chunk rows (chunk <= 0 selects DefaultChunkSize) in the given schema.
// The schema is deep-copied; nominal level sets grow as new level names
// appear in the data.
func NewNDJSONBatchReader(r io.Reader, attrs []Attribute, chunk int) *NDJSONBatchReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxNDJSONLine)
	dec := newRowDecoder(attrs)
	return &NDJSONBatchReader{
		sc:    sc,
		dec:   dec,
		batch: NewBatch(dec.attrs, chunk),
	}
}

// Attrs returns the reader's schema (the copy it owns).
func (r *NDJSONBatchReader) Attrs() []Attribute { return r.dec.attrs }

// Next fills the reader's batch with up to its chunk size of rows.
func (r *NDJSONBatchReader) Next() (*Batch, error) {
	if r.done {
		return nil, io.EOF
	}
	b := r.batch
	b.Reset()
	for len(b.cols) == 0 || b.n < cap(b.cols[0]) {
		line, err := r.nextLine()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			return nil, err
		}
		if err := r.parseLine(line); err != nil {
			return nil, err
		}
		b.AppendRow(r.dec.rowBuf)
		r.row++
		if len(b.cols) == 0 {
			break
		}
	}
	if b.n == 0 {
		return nil, io.EOF
	}
	return b, nil
}

// nextLine returns the next non-blank line or io.EOF, trimmed of JSON
// whitespace only. bytes.TrimSpace would also strip \v, \f, U+0085 and
// U+00A0, accepting rows that /score rejects.
func (r *NDJSONBatchReader) nextLine() ([]byte, error) {
	for r.sc.Scan() {
		line := r.sc.Bytes()
		for len(line) > 0 && isJSONSpace(line[0]) {
			line = line[1:]
		}
		for len(line) > 0 && isJSONSpace(line[len(line)-1]) {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			continue
		}
		return line, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, fmt.Errorf("data: reading NDJSON row %d: %w", r.row, err)
	}
	return nil, io.EOF
}

// datasetStream adapts an in-memory dataset to the BatchReader interface
// by slicing its columns chunk by chunk — zero-copy, so streaming
// consumers can be driven from materialized data in tests and writers.
type datasetStream struct {
	d     *Dataset
	batch Batch
	chunk int
	at    int
}

// Stream returns a BatchReader over the dataset's rows in order, emitting
// chunks of up to chunk rows (chunk <= 0 selects DefaultChunkSize). The
// batches alias the dataset's columns; they must be treated as read-only.
func (d *Dataset) Stream(chunk int) BatchReader {
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	return &datasetStream{d: d, chunk: chunk, batch: Batch{attrs: d.attrs, cols: make([][]float64, len(d.cols))}}
}

func (s *datasetStream) Attrs() []Attribute { return s.d.attrs }

func (s *datasetStream) Next() (*Batch, error) {
	if s.at >= s.d.n {
		return nil, io.EOF
	}
	hi := s.at + s.chunk
	if hi > s.d.n {
		hi = s.d.n
	}
	for j := range s.batch.cols {
		s.batch.cols[j] = s.d.cols[j][s.at:hi]
	}
	s.batch.n = hi - s.at
	s.at = hi
	return &s.batch, nil
}

// BatchWriter is the sink half of the streaming pipeline, implemented by
// the CSV and NDJSON batch writers.
type BatchWriter interface {
	// WriteBatch appends every row of the batch.
	WriteBatch(*Batch) error
	// Flush commits buffered output and reports deferred write errors.
	Flush() error
}

// Copy drains a batch reader into a batch writer and flushes it — the one
// pump loop behind every stream-to-stream transfer.
func Copy(dst BatchWriter, src BatchReader) error {
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := dst.WriteBatch(b); err != nil {
			return err
		}
	}
	return dst.Flush()
}

// CSVBatchWriter streams batches to the dataset CSV layout. The header is
// written on the first batch (or by Flush for an empty stream), so nominal
// level discovery in upstream readers has settled by the time any level
// name is rendered.
type CSVBatchWriter struct {
	cw     *csv.Writer
	attrs  []Attribute
	record []string
	wrote  bool
	row    int
}

// NewCSVBatchWriter prepares a writer emitting the given schema to w.
func NewCSVBatchWriter(w io.Writer, attrs []Attribute) *CSVBatchWriter {
	return &CSVBatchWriter{cw: csv.NewWriter(w), attrs: attrs, record: make([]string, len(attrs))}
}

func (w *CSVBatchWriter) header() error {
	for j, a := range w.attrs {
		w.record[j] = a.Name + ":" + a.Kind.String()
	}
	if err := w.cw.Write(w.record); err != nil {
		return fmt.Errorf("data: writing CSV header: %w", err)
	}
	w.wrote = true
	return nil
}

// WriteBatch appends every row of the batch. The batch schema must be the
// writer's schema (same backing attributes; level growth is fine).
func (w *CSVBatchWriter) WriteBatch(b *Batch) error {
	if !w.wrote {
		if err := w.header(); err != nil {
			return err
		}
	}
	for i := 0; i < b.Len(); i++ {
		for j, a := range w.attrs {
			v := b.At(i, j)
			switch {
			case IsMissing(v):
				w.record[j] = "?"
			case a.Kind == Nominal:
				w.record[j] = b.Attrs()[j].Levels[int(v)]
			case a.Kind == Binary:
				w.record[j] = strconv.Itoa(int(v))
			default:
				w.record[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		if err := w.cw.Write(w.record); err != nil {
			return fmt.Errorf("data: writing CSV row %d: %w", w.row, err)
		}
		w.row++
	}
	return nil
}

// Flush writes the header if nothing has been written yet, flushes the
// underlying CSV writer and reports any deferred write error.
func (w *CSVBatchWriter) Flush() error {
	if !w.wrote {
		if err := w.header(); err != nil {
			return err
		}
	}
	w.cw.Flush()
	return w.cw.Error()
}

// NDJSONBatchWriter streams batches as newline-delimited JSON objects in
// the row format NDJSONBatchReader parses, one AppendNDJSONRow line per
// row over every column.
type NDJSONBatchWriter struct {
	w    *bufio.Writer
	cols []int
	buf  []byte
}

// NewNDJSONBatchWriter prepares a writer emitting the given schema to w.
func NewNDJSONBatchWriter(w io.Writer, attrs []Attribute) *NDJSONBatchWriter {
	cols := make([]int, len(attrs))
	for j := range cols {
		cols[j] = j
	}
	return &NDJSONBatchWriter{w: bufio.NewWriter(w), cols: cols}
}

// WriteBatch appends one NDJSON line per batch row. The batch schema must
// be the writer's schema (same backing attributes; level growth is fine).
func (w *NDJSONBatchWriter) WriteBatch(b *Batch) error {
	for i := 0; i < b.Len(); i++ {
		w.buf = AppendNDJSONRow(w.buf[:0], b, i, w.cols)
		if _, err := w.w.Write(w.buf); err != nil {
			return fmt.Errorf("data: writing NDJSON row: %w", err)
		}
	}
	return nil
}

// AppendNDJSONRow appends row i of the batch as one NDJSON line in the
// row format NDJSONBatchReader parses: attribute name -> value, with
// nominal values as level names, binary values as true/false and missing
// values omitted. Names, levels and numbers are spelled as encoding/json
// spells them; an infinity, which JSON cannot carry as a number, is
// written as the numeric string the reader parses back. cols picks the
// batch columns to write, in order: NDJSONBatchWriter passes every
// column, a client projecting a wider stream onto a model's schema passes
// the columns the two share.
func AppendNDJSONRow(buf []byte, b *Batch, i int, cols []int) []byte {
	attrs := b.Attrs()
	buf = append(buf, '{')
	first := true
	for _, j := range cols {
		v := b.At(i, j)
		if IsMissing(v) {
			continue
		}
		if !first {
			buf = append(buf, ',')
		}
		first = false
		a := &attrs[j]
		buf = AppendJSONString(buf, a.Name)
		buf = append(buf, ':')
		switch {
		case a.Kind == Nominal:
			buf = AppendJSONString(buf, a.Levels[int(v)])
		case a.Kind == Binary:
			if v == 1 {
				buf = append(buf, "true"...)
			} else {
				buf = append(buf, "false"...)
			}
		case math.IsInf(v, 0):
			// JSON has no Inf literal; the reader parses numeric strings.
			buf = strconv.AppendQuote(buf, strconv.FormatFloat(v, 'g', -1, 64))
		default:
			buf = AppendJSONFloat(buf, v)
		}
	}
	return append(buf, '}', '\n')
}

// Flush flushes buffered lines to the underlying writer.
func (w *NDJSONBatchWriter) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("data: writing NDJSON: %w", err)
	}
	return nil
}

// WriteNDJSON serializes the dataset in the NDJSON row format.
func (d *Dataset) WriteNDJSON(w io.Writer) error {
	return Copy(NewNDJSONBatchWriter(w, d.attrs), d.Stream(DefaultChunkSize))
}
