package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"roadcrash/internal/data"
	"roadcrash/internal/eval"
)

// This file freezes the feedback path as it was before the one-pass
// decoder and the flat join index, and drives the live code against the
// frozen copies: the encoding/json decode and validation of /feedback
// bodies, and the join window with one inner map per segment id.

// referenceFeedbackParse is a frozen copy of the /feedback handler's
// decode and validation before it had its own parser: encoding/json into
// FeedbackRequest, then the whole-request checks in the handler's order.
// end is the decoder's offset after the request value, -1 when the body
// failed to decode; the body is read without a size limit. The segment
// id check has since been narrowed to integers in int64 range, and the
// copy follows it.
func referenceFeedbackParse(s *Server, body []byte) (fr FeedbackRequest, status int, msg string, end int64) {
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&fr); err != nil {
		return fr, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err), -1
	}
	end = dec.InputOffset()
	if fr.Model == "" {
		return fr, http.StatusBadRequest, "missing model name", end
	}
	m, ok := s.reg.Get(fr.Model)
	if !ok {
		return fr, http.StatusNotFound, fmt.Sprintf("unknown model %q", fr.Model), end
	}
	if fr.Version != "" && !s.knownVersion(fr.Model, m, fr.Version) {
		return fr, http.StatusNotFound,
			fmt.Sprintf("unknown version %q for model %q (serving %s)", fr.Version, fr.Model, m.Version), end
	}
	if len(fr.Labels) == 0 {
		return fr, http.StatusBadRequest, "no labels to ingest", end
	}
	for i, l := range fr.Labels {
		switch {
		case l.SegmentID == nil:
			return fr, http.StatusBadRequest, fmt.Sprintf("label %d: missing segment_id", i), end
		case *l.SegmentID != math.Trunc(*l.SegmentID) || *l.SegmentID < math.MinInt64 || *l.SegmentID >= 1<<63:
			return fr, http.StatusBadRequest, fmt.Sprintf("label %d: segment_id %v is not an integer in int64 range", i, *l.SegmentID), end
		case l.CrashProne == nil:
			return fr, http.StatusBadRequest, fmt.Sprintf("label %d: missing crash_prone", i), end
		}
	}
	return fr, http.StatusOK, "", end
}

const malformed = "malformed request: "

// FuzzFeedbackRequest drives the live decode and validation of /feedback
// bodies (data.ParseFeedbackRequest into one long-lived, reused request,
// then the handler's checks) against the frozen encoding/json copy. Both
// must give the same status and the same message, apart from the text
// after "malformed request: ", and a body both accept must decode to the
// same model, version, segment id bits and labels. The one intended
// divergence is a body with more than whitespace after the request
// value, which encoding/json ignored and the live path rejects as
// malformed.
func FuzzFeedbackRequest(f *testing.F) {
	dir := f.TempDir()
	writeLeafModel(f, dir, "m", 6, 2)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		f.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 16})
	m, _ := reg.Get("m")
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, seed := range []string{
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2,"crash_prone":false}]}`,
		`{"model":"m","version":"` + m.Version + `","labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","version":"bogus","labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"nope","labels":[{"segment_id":1,"crash_prone":true}]}`,
		// Keys that match a field only by folding or after escapes.
		`{"MODEL":"m","Labels":[{"SEGMENT_ID":1,"Crash_Prone":true}]}`,
		`{"model":"m","labels":[{"ſegment_id":1,"crash_prone":true}]}`,
		`{"\u006dodel":"m","labels":[{"segment_\u0069d":1,"crash_prone":false}]}`,
		// Unknown fields at both levels, nested.
		`{"x":{"y":[1,{"z":[null,true,"s"]}]},"model":"m","labels":[{"w":[{}],"segment_id":1,"crash_prone":true,"v":1e400}]}`,
		// Duplicate keys, including labels arrays reusing elements.
		`{"model":"x","model":"m","labels":[{"segment_id":1,"segment_id":2,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2,"crash_prone":false}],"labels":[{"segment_id":3}]}`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true},{"segment_id":2}],"labels":[{}],"labels":[null,null,{}]}`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true}],"labels":[],"labels":[{"segment_id":2}]}`,
		// null in every position.
		`null`,
		`{"model":null,"labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","model":null,"version":null,"labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","labels":null}`,
		`{"model":"m","labels":[null]}`,
		`{"model":"m","labels":[{"segment_id":null,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":null}]}`,
		// Numbers: out of range, negative zero, fractions, huge integers.
		`{"model":"m","labels":[{"segment_id":1e400,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":-0,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":1.5,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":1e300,"crash_prone":true},{"segment_id":2e-400,"crash_prone":false}]}`,
		// Wrong types and broken syntax.
		`{"model":"m","labels":[{"segment_id":"1","crash_prone":true}]}`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":1}]}`,
		`{"model":["m"],"labels":{}}`,
		`[{"model":"m"}]`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true}]`,
		``,
		// Trailing data: the intended divergence.
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true}]} x`,
		`{"model":"m","labels":[{"segment_id":1,"crash_prone":true}]}{"model":"m","labels":[]}`,
		`null x`,
		// Nesting at and past encoding/json's cap, at both levels.
		`{"model":"m","x":` + nest(maxDepth-1) + `,"labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","x":` + nest(maxDepth) + `,"labels":[{"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"x":` + nest(maxDepth-3) + `,"segment_id":1,"crash_prone":true}]}`,
		`{"model":"m","labels":[{"x":` + nest(maxDepth-2) + `,"segment_id":1,"crash_prone":true}]}`,
	} {
		f.Add(seed)
	}
	var live data.FeedbackRequest
	f.Fuzz(func(t *testing.T, body string) {
		ref, rstatus, rmsg, end := referenceFeedbackParse(srv, []byte(body))
		_, status, msg := srv.parseFeedback([]byte(body), &live)
		if end >= 0 && len(bytes.TrimLeft([]byte(body)[end:], " \t\r\n")) > 0 {
			if status != http.StatusBadRequest || !strings.HasPrefix(msg, malformed) {
				t.Fatalf("%q: trailing data got %d %q, want malformed", body, status, msg)
			}
			return
		}
		if status != rstatus || (msg != rmsg && !(strings.HasPrefix(msg, malformed) && strings.HasPrefix(rmsg, malformed))) {
			t.Fatalf("%q: got %d %q, encoding/json %d %q", body, status, msg, rstatus, rmsg)
		}
		if end < 0 {
			return
		}
		if live.Model != ref.Model || live.Version != ref.Version || len(live.IDs) != len(ref.Labels) || len(live.Labels) != len(ref.Labels) {
			t.Fatalf("%q: decoded %q %q with %d labels, encoding/json %q %q with %d", body,
				live.Model, live.Version, len(live.IDs), ref.Model, ref.Version, len(ref.Labels))
		}
		for i, l := range ref.Labels {
			id, y := data.Missing, data.Missing
			if l.SegmentID != nil {
				id = *l.SegmentID
			}
			if l.CrashProne != nil {
				y = map[bool]float64{false: 0, true: 1}[*l.CrashProne]
			}
			if !sameFloat(live.IDs[i], id) || !sameFloat(live.Labels[i], y) {
				t.Fatalf("%q: label %d decoded (%v, %v), encoding/json (%v, %v)", body, i, live.IDs[i], live.Labels[i], id, y)
			}
		}
	})
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// sameFloat compares bit for bit, with every NaN the missing marker.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// refEntry and refJoinWindow are a frozen copy of the join window before
// the flat index: the same FIFO ring, indexed by one inner map per segment
// id from version to ring slot. Each version's Brier and log-loss
// contributions are kept in arrival order.
type refEntry struct {
	id      int64
	version string
	risk    float64
	matched bool
	valid   bool
}

type refJoinWindow struct {
	ring           []refEntry
	next           int
	index          map[int64]map[string]int
	brier, logloss map[string][]float64
}

func newRefJoinWindow(size int) *refJoinWindow {
	return &refJoinWindow{
		ring:    make([]refEntry, size),
		index:   make(map[int64]map[string]int),
		brier:   make(map[string][]float64),
		logloss: make(map[string][]float64),
	}
}

func (w *refJoinWindow) record(id int64, version string, risk float64) {
	if byV := w.index[id]; byV != nil {
		if slot, ok := byV[version]; ok {
			w.ring[slot].risk = risk
			w.ring[slot].matched = false
			return
		}
	}
	slot := w.next
	if old := &w.ring[slot]; old.valid {
		if byV := w.index[old.id]; byV != nil && byV[old.version] == slot {
			delete(byV, old.version)
			if len(byV) == 0 {
				delete(w.index, old.id)
			}
		}
	}
	w.ring[slot] = refEntry{id: id, version: version, risk: risk, valid: true}
	byV := w.index[id]
	if byV == nil {
		byV = make(map[string]int, 2)
		w.index[id] = byV
	}
	byV[version] = slot
	w.next = (w.next + 1) % len(w.ring)
}

func (w *refJoinWindow) ingest(id int64, y float64, version string) string {
	fresh, seen := 0, 0
	for v, slot := range w.index[id] {
		if version != "" && v != version {
			continue
		}
		seen++
		e := &w.ring[slot]
		if e.matched {
			continue
		}
		e.matched = true
		fresh++
		w.brier[v] = append(w.brier[v], eval.BrierPoint(e.risk, y))
		w.logloss[v] = append(w.logloss[v], eval.LogLossPoint(e.risk, y))
	}
	switch {
	case fresh > 0:
		return "matched"
	case seen > 0:
		return "duplicate"
	default:
		return "unmatched"
	}
}

// TestJoinWindowMatchesNestedMapWindow drives random record and label
// sequences through the live window and the frozen nested-map copy: few
// ids, one to three versions and windows of one to eight slots, so chains
// collide and their heads, middles and tails are evicted. The ids come
// from a set with negative ids, zero and ids past 2^53, and the windows'
// indexes of 2 to 16 positions are small enough that probe runs wrap and
// backward shifts cross the end of the index. Every label must grade the
// same, the rings must hold the same entries, and every chain must reach
// exactly its id's entries. Each version's record must agree bit for bit
// with its contributions in label order: the label count and the Brier
// window's mean, and the Count and Sum of its Brier and log-loss
// histograms.
func TestJoinWindowMatchesNestedMapWindow(t *testing.T) {
	versions := []string{"v1", "v2", "v3"}
	idSet := []int64{0, 1, 2, 3, -1, -2, 1 << 53, 1<<53 + 1, 1 << 62, math.MaxInt64, math.MinInt64}
	rnd := rand.New(rand.NewSource(20261017))
	for trial := 0; trial < 2000; trial++ {
		size, nv, nids := 1+rnd.Intn(8), 1+rnd.Intn(3), 1+rnd.Intn(6)
		srv := New(NewRegistry(), Config{FeedbackWindow: size, RollingWindow: 1 << 10})
		mf := srv.feedback.forModel("m")
		ref := newRefJoinWindow(size)
		rnd.Shuffle(len(idSet), func(i, j int) { idSet[i], idSet[j] = idSet[j], idSet[i] })
		for op := 0; op < 64; op++ {
			id, v := idSet[rnd.Intn(nids)], versions[rnd.Intn(nv)]
			if rnd.Intn(2) == 0 {
				risk := float64(rnd.Intn(11)) / 10
				mf.mu.Lock()
				mf.recordLocked(id, mf.versionLocked(v), risk)
				mf.mu.Unlock()
				ref.record(id, v, risk)
			} else {
				y, pin := float64(rnd.Intn(2)), ""
				if rnd.Intn(3) == 0 {
					pin = v
				}
				mf.mu.Lock()
				got := outcomeNames[mf.gradeLocked(id, y, pin, srv.feedback)]
				mf.mu.Unlock()
				if want := ref.ingest(id, y, pin); got != want {
					t.Fatalf("trial %d op %d: label (%d, %q) graded %s, nested-map window %s", trial, op, id, pin, got, want)
				}
			}
			checkJoinWindow(t, mf, ref)
		}
		for _, v := range versions {
			brier, logloss := ref.brier[v], ref.logloss[v]
			st := mf.statsLocked(v)
			if st == nil {
				if len(brier) != 0 || len(logloss) != 0 {
					t.Fatalf("trial %d: version %s has no stats, nested-map window %d samples", trial, v, len(brier))
				}
				continue
			}
			n := uint64(len(brier))
			if st.labels != n || !sameFloat(st.brierMean(), refSum(brier)/float64(n)) {
				t.Fatalf("trial %d: version %s window (%d, %v), nested-map window (%d, %v)", trial, v,
					st.labels, st.brierMean(), n, refSum(brier)/float64(n))
			}
			bh, lh := st.brierHist, st.loglossHist
			if bh.Count() != n || !sameFloat(bh.Sum(), refSum(brier)) ||
				lh.Count() != uint64(len(logloss)) || !sameFloat(lh.Sum(), refSum(logloss)) {
				t.Fatalf("trial %d: version %s histograms (%d, %v) (%d, %v), nested-map window (%d, %v) (%d, %v)", trial, v,
					bh.Count(), bh.Sum(), lh.Count(), lh.Sum(), n, refSum(brier), len(logloss), refSum(logloss))
			}
		}
	}
}

// refSum adds the contributions in order, as a lone writer's histogram
// sum and an unwrapped window's mean add them.
func refSum(samples []float64) float64 {
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	return sum
}

// versionOf is the version string of a ring entry, "" for an empty
// slot.
func versionOf(mf *modelFeedback, e *scoreEntry) string {
	if !e.valid() {
		return ""
	}
	return mf.versions[e.version()].version
}

// checkJoinWindow compares the live ring with the frozen one slot by slot
// and checks the flat index: one chain per id in the window, found from
// the id's home position, reaching exactly the valid slots of that id,
// one per version. A window that has recorded nothing has no ring yet and
// compares as all empty slots.
func checkJoinWindow(t *testing.T, mf *modelFeedback, ref *refJoinWindow) {
	t.Helper()
	valid := 0
	for i, r := range ref.ring {
		var e scoreEntry
		if mf.ring != nil {
			e = mf.ring[i]
		}
		if e.id != r.id || versionOf(mf, &e) != r.version || e.risk != r.risk || e.matched() != r.matched || e.valid() != r.valid {
			t.Fatalf("slot %d = %+v, nested-map window %+v", i, e, r)
		}
		if e.valid() {
			valid++
		}
	}
	ids, chained := 0, 0
	for _, s := range mf.index {
		if s == 0 {
			continue
		}
		ids++
		id, head := mf.ring[s-1].id, s-1
		if got := mf.headLocked(id); got != head {
			t.Fatalf("id %d heads its chain at slot %d, its probe run finds %d", id, head, got)
		}
		seen := map[string]bool{}
		for slot := head; slot >= 0; slot = mf.ring[slot].next {
			e := &mf.ring[slot]
			v := versionOf(mf, e)
			if !e.valid() || e.id != id || seen[v] || ref.index[id][v] != int(slot) {
				t.Fatalf("chain of id %d reaches slot %d = %+v", id, slot, *e)
			}
			seen[v] = true
			chained++
		}
	}
	if ids != len(ref.index) {
		t.Fatalf("index holds %d ids, nested-map window %d", ids, len(ref.index))
	}
	if chained != valid {
		t.Fatalf("chains reach %d slots, the ring holds %d", chained, valid)
	}
}

// feedbackBatch renders a /score body for the leaf model "m", one
// segment carrying a segment_id per id from first to first+rows-1, and
// the /feedback body that labels those segments.
func feedbackBatch(first, rows int) (score, labels string) {
	var sb, lb strings.Builder
	sb.WriteString(`{"model":"m","segments":[`)
	lb.WriteString(`{"model":"m","labels":[`)
	for id := first; id < first+rows; id++ {
		if id > first {
			sb.WriteByte(',')
			lb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"aadt":1000,"segment_id":%d}`, id)
		fmt.Fprintf(&lb, `{"segment_id":%d,"crash_prone":%v}`, id, id%3 == 0)
	}
	sb.WriteString(`]}`)
	lb.WriteString(`]}`)
	return sb.String(), lb.String()
}

// raceEnabled reports a -race build (race_test.go).
var raceEnabled bool

// TestFeedbackAllocsFlat pins the allocation-free feedback loop: a
// /feedback request allocates the same count at 16 and at 256 labels,
// and a feedback-mode /score request, whose rows join the window and
// evict older ones, the same count at 16 and at 256 rows.
func TestFeedbackAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	dir := t.TempDir()
	writeLeafModel(t, dir, "m", 6, 2)
	reg := NewRegistry()
	if _, err := reg.LoadDir(dir); err != nil {
		t.Fatal(err)
	}
	srv := New(reg, Config{FeedbackWindow: 1024})
	post := func(path, body string) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
		}
	}
	// Bodies over disjoint id ranges, cycled so the window keeps evicting.
	bodies := func(rows int) (scores, labels []string) {
		for b := 0; b < 32; b++ {
			score, label := feedbackBatch(b*rows, rows)
			scores, labels = append(scores, score), append(labels, label)
		}
		return scores, labels
	}
	allocs := func(path string, bodies []string) float64 {
		for _, b := range bodies {
			post(path, b) // warm pools, the index and every series
		}
		next := 0
		return testing.AllocsPerRun(200, func() {
			post(path, bodies[next%len(bodies)])
			next++
		})
	}
	smallScores, smallLabels := bodies(16)
	largeScores, largeLabels := bodies(256)
	for _, b := range largeScores {
		post("/score", b) // the labels below then match or are duplicates
	}
	s, l := allocs("/feedback", smallLabels), allocs("/feedback", largeLabels)
	t.Logf("/feedback: %v allocs at 16 labels, %v at 256", s, l)
	if s != l {
		t.Errorf("/feedback allocates %v times at 16 labels, %v at 256", s, l)
	}
	s, l = allocs("/score", smallScores), allocs("/score", largeScores)
	t.Logf("feedback-mode /score: %v allocs at 16 rows, %v at 256", s, l)
	if s != l {
		t.Errorf("feedback-mode /score allocates %v times at 16 rows, %v at 256", s, l)
	}
}
