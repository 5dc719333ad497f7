package roadcrash

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"roadcrash/internal/artifact"
	"roadcrash/internal/core"
	"roadcrash/internal/data"
	"roadcrash/internal/roadnet"
	"roadcrash/internal/router"
	"roadcrash/internal/serve"
)

// conformanceRows is the scenario traffic every model scores, sent to
// /score in requests of conformanceBatch rows and to /score/stream as one
// body.
const (
	conformanceRows  = 2048
	conformanceBatch = 256
)

// TestRiskBytesConformance pins "one input gets one answer everywhere"
// down to the bytes: for every learner kind the study exports, the same
// ScenarioStream rows, projected onto the model's schema plus
// segment_id, are scored by /score and /score/stream on a replica
// without the feedback loop, on one with it, and through a router over
// the two, and every "risk": value on all six paths must be exactly
// data.AppendJSONFloat of the offline batch scorer's score for that row.
// Every replica parses the same request schema whether or not its loop
// reads segment_id, so the router's answer cannot depend on the replica
// it picks. The traffic must include risks that strconv's shortest %g
// spells differently (below 1e-4, such as 1e-07 against 1e-7), so one
// encoder, not agreeing digits, is what the test pins.
func TestRiskBytesConformance(t *testing.T) {
	study := smallStudy(t)
	var arts []*artifact.Artifact
	for _, learner := range core.ExportLearners() {
		opt := core.ExportOptions{Phase: 2, Threshold: 8, Learner: learner}
		if learner == "zinb" {
			// The hurdle is fit on zero-crash segments, which phase 2 drops.
			opt.Phase = 1
		}
		a, err := study.ExportArtifact(opt)
		if err != nil {
			t.Fatalf("%s: %v", learner, err)
		}
		arts = append(arts, a)
	}

	replica := func(cfg serve.Config) *httptest.Server {
		reg := serve.NewRegistry()
		for _, a := range arts {
			if _, err := reg.Register(a); err != nil {
				t.Fatal(err)
			}
		}
		srv := httptest.NewServer(serve.New(reg, cfg))
		t.Cleanup(srv.Close)
		return srv
	}
	// An idle fleet routes to the first replica in configuration order,
	// so the router's requests reach the replica without the loop.
	plain := replica(serve.Config{})
	looped := replica(serve.Config{FeedbackWindow: conformanceBatch})
	cfg := router.DefaultConfig()
	cfg.Replicas = []string{plain.URL, looped.URL}
	cfg.JitterSeed = 1
	rt, err := router.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Close)
	routed := httptest.NewServer(rt)
	t.Cleanup(routed.Close)

	opt := roadnet.DefaultScenarioOptions(conformanceRows)
	opt.Seed = 1
	stream, err := roadnet.NewScenarioStream(opt)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := data.ReadAll("scenario", stream)
	if err != nil {
		t.Fatal(err)
	}

	respelled := 0
	for _, a := range arts {
		bs, err := artifact.NewBatchScorer(a)
		if err != nil {
			t.Fatal(err)
		}
		var cols []int
		for j, at := range traffic.Attrs() {
			if bs.Mapper().HasAttr(at.Name) || at.Name == roadnet.AttrSegmentID {
				cols = append(cols, j)
			}
		}
		var want [][]byte
		var scoreBodies [][]byte
		var streamBody []byte
		if _, err := bs.ScoreAll(traffic.Stream(conformanceBatch), func(b *data.Batch, scores []float64) error {
			body := append([]byte(`{"model":`), data.AppendJSONString(nil, a.Name)...)
			body = append(body, `,"segments":[`...)
			for i, s := range scores {
				if i > 0 {
					body = append(body, ',')
				}
				row := data.AppendNDJSONRow(nil, b, i, cols)
				body = append(body, row[:len(row)-1]...)
				streamBody = append(streamBody, row...)
				want = append(want, data.AppendJSONFloat(nil, s))
				if strconv.FormatFloat(s, 'g', -1, 64) != string(want[len(want)-1]) {
					respelled++
				}
			}
			scoreBodies = append(scoreBodies, append(body, `]}`...))
			return nil
		}); err != nil {
			t.Fatalf("%s: offline scoring: %v", a.Name, err)
		}

		for _, tier := range []struct {
			name string
			url  string
		}{{"replica", plain.URL}, {"feedback replica", looped.URL}, {"router", routed.URL}} {
			var got [][]byte
			for _, body := range scoreBodies {
				got = append(got, riskBytes(t, tier.url+"/score", "application/json", body)...)
			}
			sameRiskBytes(t, a.Name+" via "+tier.name+" /score", got, want)

			got = riskBytes(t, tier.url+"/score/stream?model="+a.Name, "application/x-ndjson", streamBody)
			sameRiskBytes(t, a.Name+" via "+tier.name+" /score/stream", got, want)
		}
	}
	if respelled == 0 {
		t.Fatal("no risk in the traffic is spelled differently by strconv's 'g' and encoding/json; the test pins nothing")
	}
	t.Logf("%d of %d risks are spelled differently by %%g", respelled, conformanceRows*len(arts))
}

// riskBytes POSTs body and returns the bytes of every "risk": value in
// the 200 answer, in order. A stream answer must end in a clean trailer.
func riskBytes(t *testing.T, url, contentType string, body []byte) [][]byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: %d %s", url, resp.StatusCode, answer)
	}
	const key = `"risk":`
	var out [][]byte
	rest := answer
	for {
		i := bytes.Index(rest, []byte(key))
		if i < 0 {
			break
		}
		rest = rest[i+len(key):]
		end := bytes.IndexAny(rest, ",}")
		if end < 0 {
			t.Fatalf("POST %s: unterminated risk in %q", url, answer)
		}
		out = append(out, rest[:end])
		rest = rest[end:]
	}
	if contentType == "application/x-ndjson" {
		trailer := fmt.Sprintf(`{"done":true,"rows":%d}`+"\n", len(out))
		if !bytes.HasSuffix(answer, []byte(trailer)) {
			t.Fatalf("POST %s: answer does not end in %q: %s", url, trailer, answer[max(0, len(answer)-300):])
		}
	}
	return out
}

// sameRiskBytes requires got to equal want value for value, byte for byte.
func sameRiskBytes(t *testing.T, path string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d risks, want %d", path, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d risk %s, offline %s", path, i, got[i], want[i])
		}
	}
}
