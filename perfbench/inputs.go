package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/geo"
	"roadcrash/internal/roadnet"
)

// The served models, exported by the crashprone CLI before any clock starts.
const (
	treeModel   = "phase2-tree-cp8"
	kdeModel    = "grid-kde"
	treeThresh  = 8 // crash_count above this labels a segment crash-prone
	hotspotK    = 64
	kdeFitRows  = 60000
	kdeFitSeed  = 20110322
	kdeCellKm   = 3
	kdeTrainFrc = 0.5 // the CLI's default -train-frac
)

// inputs is one workload's pre-rendered traffic and its reference answers.
// Bodies form a pool the client cycles through; every body holds distinct
// scenario rows.
type inputs struct {
	bodies [][]byte    // request bodies; nil on hotspots-topk
	refs   [][]float64 // reference risk per row, per body
	labels [][]byte    // /feedback body per body, score-feedback only
	brier  []float64   // Σ (risk − label)² per body
	cells  []geo.CellRisk
}

// makeInputs generates the workload's bodies from one seeded scenario
// stream. The rows are projected onto the tree model's schema (plus a
// segment_id join key on score-feedback), rendered with the data package's
// NDJSON writer and scored offline by an artifact.BatchScorer, which gives
// the reference every served risk is compared with.
func makeInputs(w workload, seed int64, tree *artifact.Artifact, kde *geo.Model) (*inputs, error) {
	in := &inputs{}
	if w.rows == 0 {
		in.cells = kde.TopCells(hotspotK)
		return in, nil
	}
	mapper, err := artifact.NewRowMapper(tree)
	if err != nil {
		return nil, err
	}
	bs, err := artifact.NewBatchScorer(tree)
	if err != nil {
		return nil, err
	}
	opt := roadnet.DefaultScenarioOptions(w.rows * w.bodies)
	opt.Seed = uint64(seed)
	opt.ChunkSize = w.rows // one stream batch per request body
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		return nil, err
	}

	study := stream.Attrs()
	col := make(map[string]int, len(study))
	for j, a := range study {
		col[a.Name] = j
	}
	// The projection keeps the study's attribute definitions, so nominal
	// values stay indices into the study's level names. Schema columns the
	// scenario lacks (the target and its derived forms) are not sent; both
	// the server and the reference score them as missing.
	var attrs []data.Attribute
	var src []int
	for _, a := range mapper.Attrs() {
		if k, ok := col[a.Name]; ok {
			attrs, src = append(attrs, study[k]), append(src, k)
		}
	}
	if w.feedback {
		k := col[roadnet.AttrSegmentID]
		attrs, src = append(attrs, study[k]), append(src, k)
	}
	countCol := col[roadnet.CrashCountAttr]

	proj := data.NewBatch(attrs, w.rows)
	row := make([]float64, len(attrs))
	var lines bytes.Buffer
	for b := 0; b < w.bodies; b++ {
		batch, err := stream.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("scenario stream ended after %d bodies", b)
		}
		if err != nil {
			return nil, err
		}
		proj.Reset()
		ys := make([]bool, batch.Len())
		for i := range ys {
			for j, k := range src {
				row[j] = batch.At(i, k)
			}
			if w.feedback {
				// Each row gets its own join key: the scenario repeats a
				// segment id for every observation year.
				row[len(row)-1] = float64(b*w.rows + i + 1)
			}
			proj.AppendRow(row)
			ys[i] = batch.At(i, countCol) > treeThresh
		}

		lines.Reset()
		nw := data.NewNDJSONBatchWriter(&lines, attrs)
		if err := nw.WriteBatch(proj); err != nil {
			return nil, err
		}
		if err := nw.Flush(); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, renderBody(w, lines.Bytes()))

		scores, err := bs.ScoreBatch(proj)
		if err != nil {
			return nil, err
		}
		in.refs = append(in.refs, append([]float64(nil), scores...))
		sum := 0.0
		for i, r := range scores {
			d := r
			if ys[i] {
				d = r - 1
			}
			sum += d * d
		}
		in.brier = append(in.brier, sum)
		if w.feedback {
			in.labels = append(in.labels, renderLabels(proj.Col(len(attrs)-1), ys))
		}
	}
	return in, nil
}

// renderBody wraps NDJSON row lines into the workload's request body: the
// lines themselves for /score/stream, a {"model","segments"} object for
// /score.
func renderBody(w workload, lines []byte) []byte {
	if w.stream {
		return append([]byte(nil), lines...)
	}
	body := make([]byte, 0, len(lines)+64)
	body = append(body, `{"model":"`+treeModel+`","segments":[`...)
	for i, line := range bytes.Split(bytes.TrimSuffix(lines, []byte("\n")), []byte("\n")) {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, line...)
	}
	return append(body, ']', '}')
}

// renderLabels builds the /feedback body grading one scored body.
func renderLabels(ids []float64, ys []bool) []byte {
	b := []byte(`{"model":"` + treeModel + `","labels":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"segment_id":`...)
		b = strconv.AppendFloat(b, id, 'f', -1, 64)
		b = append(b, `,"crash_prone":`...)
		b = strconv.AppendBool(b, ys[i])
		b = append(b, '}')
	}
	return append(b, ']', '}')
}
