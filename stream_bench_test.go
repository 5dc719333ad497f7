package roadcrash

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
)

// The streaming benchmarks pin the tentpole's constant-memory claim
// (recorded in BENCH_3.json): bytes/op and allocs/op of the out-of-core
// scorer stay flat as the generated feed grows from 100k to 1M rows,
// while the in-memory path's footprint scales with the row count.

var (
	benchArtOnce sync.Once
	benchArt     *artifact.Artifact
	benchArtErr  error
)

// benchArtifact trains the small-scale phase 2 decision tree once.
func benchArtifact(b *testing.B) *artifact.Artifact {
	b.Helper()
	benchArtOnce.Do(func() {
		var study *core.Study
		study, benchArtErr = core.NewStudy(core.SmallConfig())
		if benchArtErr != nil {
			return
		}
		benchArt, benchArtErr = study.ExportArtifact(core.ExportOptions{Phase: 2, Threshold: 8})
	})
	if benchArtErr != nil {
		b.Fatal(benchArtErr)
	}
	return benchArt
}

// benchStreamScore streams rows generated segment-year rows through the
// batch scorer.
func benchStreamScore(b *testing.B, rows int) {
	a := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := roadnet.DefaultScenarioOptions(rows)
		stream, err := roadnet.NewScenarioStream(opt)
		if err != nil {
			b.Fatal(err)
		}
		bs, err := artifact.NewBatchScorer(a)
		if err != nil {
			b.Fatal(err)
		}
		n, err := bs.ScoreAll(stream, nil)
		if err != nil {
			b.Fatal(err)
		}
		if n != rows {
			b.Fatalf("scored %d rows, want %d", n, rows)
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}

func BenchmarkStreamScore100k(b *testing.B) { benchStreamScore(b, 100000) }

func BenchmarkStreamScore1M(b *testing.B) { benchStreamScore(b, 1000000) }

// BenchmarkInMemoryScore100k is the contrast case: the same 100k generated
// rows materialized into a Dataset and scored through MapDataset + Score.
// Its bytes/op scale with the row count — the pre-streaming behavior of
// every ingestion path.
func BenchmarkInMemoryScore100k(b *testing.B) {
	const rows = 100000
	a := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream, err := roadnet.NewScenarioStream(roadnet.DefaultScenarioOptions(rows))
		if err != nil {
			b.Fatal(err)
		}
		ds, err := data.ReadAll("feed", stream)
		if err != nil {
			b.Fatal(err)
		}
		scorer, err := a.Model()
		if err != nil {
			b.Fatal(err)
		}
		mapper, err := artifact.NewRowMapper(a)
		if err != nil {
			b.Fatal(err)
		}
		mapped, err := mapper.MapDataset(ds)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(artifact.Score(scorer, mapped)); got != rows {
			b.Fatalf("scored %d rows, want %d", got, rows)
		}
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// BenchmarkNDJSONReader drains an NDJSONBatchReader over one 4096-row
// ScenarioStream body rendered with NDJSONBatchWriter, building the reader
// per body as /score/stream does per request. It isolates the row decoder
// that dominates /score/stream: bytes/s is parse throughput, allocs/op the
// per-body allocation count.
func BenchmarkNDJSONReader(b *testing.B) {
	const rows = 4096
	stream, err := roadnet.NewScenarioStream(roadnet.DefaultScenarioOptions(rows))
	if err != nil {
		b.Fatal(err)
	}
	attrs := stream.Attrs()
	var body bytes.Buffer
	if err := data.Copy(data.NewNDJSONBatchWriter(&body, attrs), stream); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := data.NewNDJSONBatchReader(bytes.NewReader(body.Bytes()), attrs, data.DefaultChunkSize)
		n := 0
		for {
			batch, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += batch.Len()
		}
		if n != rows {
			b.Fatalf("parsed %d rows, want %d", n, rows)
		}
	}
	b.ReportMetric(rows, "rows/op")
}
