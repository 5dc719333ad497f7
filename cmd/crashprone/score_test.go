package main

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/serve"
)

// scoreRows is one /score body's worth of scenario rows.
const scoreRows = 256

// TestScoreMatchesServedRisks pins that `crashprone score` and a replica
// give one answer. One /score body of scenario rows, projected onto the
// model's schema plus segment_id, is written as NDJSON and as CSV and
// scored offline from each file by cmdScore, and the same rows go to
// /score and /score/stream on a replica without the feedback loop. The
// risk column of both score files must equal the served "risk": bytes,
// row for row.
func TestScoreMatchesServedRisks(t *testing.T) {
	dir := t.TempDir()
	model := filepath.Join(dir, "model.json")
	if err := cmdExport([]string{"-scale", "small", "-threshold", "8", "-out", model}); err != nil {
		t.Fatal(err)
	}
	a, err := artifact.ReadFile(model)
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := artifact.NewRowMapper(a)
	if err != nil {
		t.Fatal(err)
	}

	opt := roadnet.DefaultScenarioOptions(scoreRows)
	opt.Seed = 1
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := data.ReadAll("scenario", stream)
	if err != nil {
		t.Fatal(err)
	}
	var cols []int
	var attrs []data.Attribute
	for j, at := range traffic.Attrs() {
		if mapper.HasAttr(at.Name) || at.Name == roadnet.AttrSegmentID {
			cols = append(cols, j)
			attrs = append(attrs, at)
		}
	}
	batch, err := traffic.Stream(scoreRows).Next()
	if err != nil {
		t.Fatal(err)
	}
	var ndjson []byte
	body := append([]byte(`{"model":`), data.AppendJSONString(nil, a.Name)...)
	body = append(body, `,"segments":[`...)
	for i := 0; i < batch.Len(); i++ {
		row := data.AppendNDJSONRow(nil, batch, i, cols)
		ndjson = append(ndjson, row...)
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, row[:len(row)-1]...)
	}
	body = append(body, `]}`...)
	var csvRows bytes.Buffer
	if err := data.Copy(data.NewCSVBatchWriter(&csvRows, attrs), data.NewNDJSONBatchReader(bytes.NewReader(ndjson), attrs, scoreRows)); err != nil {
		t.Fatal(err)
	}

	offline := map[string][]string{}
	for format, rows := range map[string][]byte{"ndjson": ndjson, "csv": csvRows.Bytes()} {
		in := filepath.Join(dir, "rows."+format)
		out := filepath.Join(dir, format+"-scores.csv")
		if err := os.WriteFile(in, rows, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdScore([]string{"-model", model, "-format", format, "-in", in, "-out", out}); err != nil {
			t.Fatalf("score -format %s: %v", format, err)
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if header := records[0]; len(header) != 3 || header[0] != roadnet.AttrSegmentID || header[1] != "risk" {
			t.Fatalf("score -format %s: header %q, want segment_id,risk,crash_prone", format, header)
		}
		for _, r := range records[1:] {
			offline[format] = append(offline[format], r[1])
		}
	}

	reg := serve.NewRegistry()
	if _, err := reg.LoadFile(model); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(serve.New(reg, serve.Config{}))
	defer srv.Close()
	served := map[string][]string{
		"/score":        servedRisks(t, srv.URL+"/score", "application/json", body),
		"/score/stream": servedRisks(t, srv.URL+"/score/stream?model="+a.Name, "application/x-ndjson", ndjson),
	}
	for endpoint, risks := range served {
		for format, want := range offline {
			if len(risks) != scoreRows || len(want) != scoreRows {
				t.Fatalf("%s gave %d risks and score -format %s %d, want %d each", endpoint, len(risks), format, len(want), scoreRows)
			}
			for i := range risks {
				if risks[i] != want[i] {
					t.Fatalf("row %d: %s risk %s, score -format %s risk %s", i, endpoint, risks[i], format, want[i])
				}
			}
		}
	}
}

// servedRisks POSTs body and returns the literal "risk" of every scored
// row in the 200 answer: the scores of a /score answer, or the score
// lines of a /score/stream answer, which must end in a clean trailer.
func servedRisks(t *testing.T, url, contentType string, body []byte) []string {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, e.Error)
	}
	// A json.Number keeps a number's bytes as the answer spells them.
	type line struct {
		Risk  json.Number
		Done  bool
		Rows  int
		Error string
	}
	var risks []string
	if contentType == "application/json" {
		var answer struct{ Scores []line }
		if err := json.NewDecoder(resp.Body).Decode(&answer); err != nil {
			t.Fatal(err)
		}
		for _, s := range answer.Scores {
			risks = append(risks, s.Risk.String())
		}
		return risks
	}
	sc := bufio.NewScanner(resp.Body)
	var last line
	for sc.Scan() {
		last = line{}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if last.Risk != "" {
			risks = append(risks, last.Risk.String())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !last.Done || last.Rows != len(risks) || last.Error != "" {
		t.Fatalf("POST %s: trailer %+v after %d score lines", url, last, len(risks))
	}
	return risks
}
