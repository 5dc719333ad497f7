package compiled_test

import (
	"fmt"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/compiled"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
)

// benchBlock materializes one scenario chunk mapped into the model schema
// — the exact columnar block the serving hot path scores — plus its
// row-major transpose for the interpreted baseline.
func benchBlock(b *testing.B, a *artifact.Artifact, n int) (cols [][]float64, rows [][]float64) {
	b.Helper()
	opt := roadnet.DefaultScenarioOptions(n)
	opt.ChunkSize = n
	opt.Seed = 99
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		b.Fatal(err)
	}
	ds, err := data.ReadAll("bench", stream)
	if err != nil {
		b.Fatal(err)
	}
	mapper, err := artifact.NewRowMapper(a)
	if err != nil {
		b.Fatal(err)
	}
	rows, err = mapper.MapDataset(ds)
	if err != nil {
		b.Fatal(err)
	}
	cols = make([][]float64, len(rows[0]))
	for j := range cols {
		cols[j] = make([]float64, len(rows))
		for i, row := range rows {
			cols[j][i] = row[j]
		}
	}
	return cols, rows
}

// BenchmarkCompiledScore measures the inference hot path per learner
// kind: the interpreted row-at-a-time engine against the compiled
// columnar engine, over one 4096-row scenario block mapped into the model
// schema. Run it as
//
//	go test -run='^$' -bench=BenchmarkCompiledScore -benchmem ./internal/compiled
//
// and divide 4096 by the per-op time for rows/s. The CI bench smoke
// executes a 1x pass so the harness cannot rot.
func BenchmarkCompiledScore(b *testing.B) {
	const n = 4096
	ds := trainDataset(600, 11)
	models := learners(b, ds)
	for _, kind := range []artifact.Kind{
		artifact.KindDecisionTree, artifact.KindRegressionTree,
		artifact.KindNaiveBayes, artifact.KindLogistic,
		artifact.KindBagging, artifact.KindAdaBoost,
	} {
		interp := models[kind]
		a, err := artifact.New("bench", kind, interp, ds.Attrs(), 8, 1, "label", nil)
		if err != nil {
			b.Fatal(err)
		}
		cols, rows := benchBlock(b, a, n)
		cs, err := compiled.Compile(interp)
		if err != nil {
			b.Fatalf("%s: %v", kind, err)
		}
		out := make([]float64, n)
		b.Run(fmt.Sprintf("%s/interpreted", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r, row := range rows {
					out[r] = interp.PredictProb(row)
				}
			}
		})
		b.Run(fmt.Sprintf("%s/compiled", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cs.ScoreColumns(cols, out)
			}
		})
	}
}
