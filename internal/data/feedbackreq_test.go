package data

import (
	"math"
	"strings"
	"testing"
)

// miss marks a missing label field in the tables below.
var miss = Missing

// TestParseFeedbackRequest pins the decode of every field and value shape
// against what encoding/json decoded into the handler's old request
// struct: keys fold, unknown keys are skipped, later duplicates win, and
// null means "unchanged" for strings, "missing" for label fields and
// "none" for the labels.
func TestParseFeedbackRequest(t *testing.T) {
	for _, tc := range []struct {
		name, body     string
		model, version string
		ids, labels    []float64
	}{
		{"happy", `{"model":"m","version":"v","labels":[{"segment_id":7,"crash_prone":true},{"segment_id":-0,"crash_prone":false}]}`,
			"m", "v", []float64{7, math.Copysign(0, -1)}, []float64{1, 0}},
		{"whitespace", " \t\r\n{ \"model\" : \"m\" , \"labels\" : [ { \"segment_id\" : 1.5e1 , \"crash_prone\" : true } ] } \n",
			"m", "", []float64{15}, []float64{1}},
		{"folded keys", `{"MODEL":"m","Version":"v","LABELS":[{"Segment_ID":1,"CRASH_PRONE":true},{"ſegment_id":2,"crash_pRone":false}]}`,
			"m", "v", []float64{1, 2}, []float64{1, 0}},
		{"escaped keys and values", `{"\u006dodel":"m\u00e9","labels":[{"segment_\u0069d":3,"crash_prone":true}]}`,
			"mé", "", []float64{3}, []float64{1}},
		{"unknown keys skipped", `{"x":{"y":[1,{"z":null}],"n":1e400},"model":"m","labels":[{"note":"a","segment_id":4,"more":[[]],"crash_prone":false}],"tail":true}`,
			"m", "", []float64{4}, []float64{0}},
		{"later duplicate wins", `{"model":"a","model":"m","version":"v","version":"w","labels":[{"segment_id":1,"segment_id":2,"crash_prone":true,"crash_prone":false}]}`,
			"m", "w", []float64{2}, []float64{0}},
		{"repeated labels reuse elements", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2,"crash_prone":false}],"labels":[{"segment_id":3}]}`,
			"m", "", []float64{3}, []float64{1}},
		{"stale elements come back", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2,"crash_prone":false}],"labels":[{}],"labels":[null,null,{"segment_id":9}]}`,
			"m", "", []float64{1, 2, 9}, []float64{1, 0, miss}},
		{"empty labels reset", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true}],"labels":[],"labels":[{"crash_prone":false}]}`,
			"m", "", []float64{miss}, []float64{0}},
		{"null labels reset", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true}],"labels":null,"labels":[null]}`,
			"m", "", []float64{miss}, []float64{miss}},
		{"null strings keep", `{"model":"m","model":null,"version":null,"labels":null}`,
			"m", "", []float64{}, []float64{}},
		{"null fields missing", `{"model":"m","labels":[{"segment_id":1,"crash_prone":true,"segment_id":null,"crash_prone":null},{}]}`,
			"m", "", []float64{miss, miss}, []float64{miss, miss}},
		{"top-level null", "null ", "", "", []float64{}, []float64{}},
		{"empty object", `{}`, "", "", []float64{}, []float64{}},
		{"non-integer and underflow ids", `{"model":"m","labels":[{"segment_id":1.25},{"segment_id":1e-400}]}`,
			"m", "", []float64{1.25, 0}, []float64{miss, miss}},
	} {
		var r FeedbackRequest
		if err := ParseFeedbackRequest([]byte(tc.body), &r); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if r.Model != tc.model || r.Version != tc.version {
			t.Errorf("%s: model %q version %q, want %q %q", tc.name, r.Model, r.Version, tc.model, tc.version)
		}
		if !sameBits(r.IDs, tc.ids) || !sameBits(r.Labels, tc.labels) {
			t.Errorf("%s: ids %v labels %v, want %v %v", tc.name, r.IDs, r.Labels, tc.ids, tc.labels)
		}
	}
}

// sameBits compares two columns bit for bit, so -0 and the missing
// marker count.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(IsMissing(a[i]) && IsMissing(b[i])) {
			return false
		}
	}
	return true
}

// TestParseFeedbackRequestMalformed pins the rejections: bad syntax
// anywhere, a value of the wrong type for a known field, an id outside
// float64 range, and anything after the top-level value.
func TestParseFeedbackRequestMalformed(t *testing.T) {
	for _, body := range []string{
		``, ` `, `[]`, `"m"`, `1`, `true`, `nul`, `{`, `{"model"}`, `{"model":"m",}`, `{"model":"m" "labels":[]}`,
		`{"model":1}`, `{"model":true}`, `{"model":{}}`, `{"version":["v"]}`,
		`{"labels":{}}`, `{"labels":"x"}`, `{"labels":[1]}`, `{"labels":[[]]}`, `{"labels":[{}`, `{"labels":[{} {}]}`,
		`{"labels":[{"segment_id":"1"}]}`, `{"labels":[{"segment_id":true}]}`, `{"labels":[{"segment_id":1e400}]}`,
		`{"labels":[{"segment_id":01}]}`, `{"labels":[{"crash_prone":1}]}`, `{"labels":[{"crash_prone":"true"}]}`,
		`{"labels":[{"crash_prone":tru}]}`, `{"labels":[{"crash_prone":null`, `{"labels":[{"x":}]}`, `{"labels":[{"x" 1}]}`,
		`{"x":[1,]}`, `{"x":"\q"}`, "{\"x\":\"\x01\"}",
		`{"model":"m"} x`, `{"model":"m"}{"model":"m"}`, `null x`, `null{}`, `{}]`,
	} {
		var r FeedbackRequest
		if err := ParseFeedbackRequest([]byte(body), &r); err == nil {
			t.Errorf("%q: accepted as %+v", body, r)
		}
	}
}

// TestParseFeedbackRequestDepth pins encoding/json's nesting cap at the
// exact boundary, counting the containers around a skipped value: 10000
// open containers in all are accepted, 10001 are not.
func TestParseFeedbackRequestDepth(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{`{"x":` + nest(maxScoreDepth-1) + `}`, true},
		{`{"x":` + nest(maxScoreDepth) + `}`, false},
		{`{"labels":[{"x":` + nest(maxScoreDepth-3) + `}]}`, true},
		{`{"labels":[{"x":` + nest(maxScoreDepth-2) + `}]}`, false},
	} {
		var r FeedbackRequest
		err := ParseFeedbackRequest([]byte(tc.body), &r)
		if (err == nil) != tc.ok || (err != nil && !strings.Contains(err.Error(), "depth")) {
			t.Errorf("%d bytes: err = %v, want ok=%v or a depth error", len(tc.body), err, tc.ok)
		}
	}
}

// TestParseFeedbackRequestReuse pins that a reused request carries
// nothing over from the previous body: fewer labels, other names, and
// columns that a repeated labels array would reuse within one body.
func TestParseFeedbackRequestReuse(t *testing.T) {
	var r FeedbackRequest
	first := `{"model":"a","version":"v","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2,"crash_prone":true},{"segment_id":3,"crash_prone":true}]}`
	if err := ParseFeedbackRequest([]byte(first), &r); err != nil || len(r.IDs) != 3 {
		t.Fatalf("first parse: %v, %d labels", err, len(r.IDs))
	}
	second := `{"model":"b","labels":[{}],"labels":[null,{"crash_prone":false}]}`
	if err := ParseFeedbackRequest([]byte(second), &r); err != nil {
		t.Fatal(err)
	}
	if r.Model != "b" || r.Version != "" || !sameBits(r.IDs, []float64{miss, miss}) || !sameBits(r.Labels, []float64{miss, 0}) {
		t.Fatalf("second parse leaked state: %+v", r)
	}
	if err := ParseFeedbackRequest([]byte(`{"model":"b","labels":[{"segment_id":1`), &r); err == nil {
		t.Fatal("truncated body accepted")
	}
	if err := ParseFeedbackRequest([]byte(`{"model":"b"}`), &r); err != nil || len(r.IDs) != 0 || len(r.Labels) != 0 {
		t.Fatalf("after a failed parse: %v, %+v", err, r)
	}
}

// TestParseFeedbackRequestAllocs pins the steady state: decoding into a
// reused request allocates nothing, whatever the label count.
func TestParseFeedbackRequestAllocs(t *testing.T) {
	body := []byte(`{"model":"m","labels":[` + strings.Repeat(`{"segment_id":12345,"crash_prone":true},`, 255) + `{"segment_id":1,"crash_prone":false}]}`)
	var r FeedbackRequest
	if err := ParseFeedbackRequest(body, &r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() { ParseFeedbackRequest(body, &r) }); n != 0 {
		t.Fatalf("ParseFeedbackRequest allocates %v times per body", n)
	}
}
