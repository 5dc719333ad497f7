package serve

import (
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"net/http"
	"sync"
	"time"

	"roadcrash/internal/artifact"
	"roadcrash/internal/data"
	"roadcrash/internal/eval"
	"roadcrash/internal/metrics"
)

// This file is the production feedback loop: POST /feedback joins delayed
// crash labels to recently served scores (a bounded in-memory window keyed
// by segment id + model version), keeps each model version's online
// record (a rolling Brier window and the Brier and log-loss histograms),
// raises a drift alarm with hysteresis against a pinned baseline,
// shadow-scores a staged candidate set on live traffic, and gates
// promotion of that set through the existing two-phase reload on the
// candidate actually beating the incumbent on the rolling window.

// segmentIDAttr is the bookkeeping column the feedback loop joins on. It
// matches roadnet.AttrSegmentID without importing the generator: any feed
// can carry it, synthetic or not.
const segmentIDAttr = "segment_id"

// segmentKey is the one conversion of a segment id to its join key. Only
// an integer in [-2^63, 2^63) converts; any other value (a fraction, an
// infinity, the missing marker, an integer out of int64 range) reports
// false, because int64 would truncate it or fold it onto another id's key.
func segmentKey(id float64) (int64, bool) {
	if id != math.Trunc(id) || id < -(1<<63) || id >= 1<<63 {
		return 0, false
	}
	return int64(id), true
}

// brierBuckets covers the [0, 1] range of per-label Brier contributions
// (squared error of a probability against a 0/1 outcome).
var brierBuckets = []float64{0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1}

// loglossBuckets covers per-label log-loss: 0 at a confident correct
// score, unbounded above (clamped by eval.LogLossClamp) for confident
// misses.
var loglossBuckets = []float64{0.01, 0.05, 0.1, 0.25, 0.5, 1, 2, 4, 8, 16}

// FeedbackResponse answers POST /feedback with per-outcome label counts
// and the model's drift alarm state after ingestion.
type FeedbackResponse struct {
	Model    string         `json:"model"`
	Outcomes map[string]int `json:"outcomes"`
	Alarm    bool           `json:"drift_alarm"`
	Promoted []string       `json:"promoted,omitempty"`
}

// ShadowStatus answers GET /shadow: the staged candidate versions next to
// the incumbents they shadow, with both sides' windowed Brier.
type ShadowStatus struct {
	Staged     bool              `json:"staged"`
	Candidates []CandidateStatus `json:"candidates,omitempty"`
}

// CandidateStatus is one shadowed model in the GET /shadow response. The
// Brier fields read 0 until a side has joined labels — the label counts
// say whether a Brier is evidence or a placeholder.
type CandidateStatus struct {
	Model            string  `json:"model"`
	CandidateVersion string  `json:"candidate_version"`
	IncumbentVersion string  `json:"incumbent_version,omitempty"`
	Identical        bool    `json:"identical"`
	CandidateBrier   float64 `json:"candidate_brier"`
	IncumbentBrier   float64 `json:"incumbent_brier"`
	CandidateLabels  uint64  `json:"candidate_labels"`
	IncumbentLabels  uint64  `json:"incumbent_labels"`
}

// PromoteResponse answers POST /promote on success.
type PromoteResponse struct {
	Promoted []string `json:"promoted"`
	Models   []string `json:"models"`
}

// scoreEntry is one served score awaiting its label: 24 bytes with no
// pointer, so the ring is one flat allocation the garbage collector never
// scans. next chains the entries of one segment id, one per model version
// that scored it, newest first; -1 ends the chain. tag packs the index of
// the scoring version in the model's version table with the entry's
// matched and valid flags.
type scoreEntry struct {
	id   int64
	risk float64
	next int32
	tag  uint32
}

const (
	entryValid   uint32 = 1 << 31
	entryMatched uint32 = 1 << 30
	entryVersion        = entryMatched - 1 // mask of the version index
)

func (e *scoreEntry) valid() bool    { return e.tag&entryValid != 0 }
func (e *scoreEntry) matched() bool  { return e.tag&entryMatched != 0 }
func (e *scoreEntry) version() int32 { return int32(e.tag & entryVersion) }

// versionStats is one row of a model's version table: a version that has
// scored a row into the join window, and its whole online quality record,
// which the model's lock alone guards. The record starts at the first
// label that matches one of the version's scores; until then brier is
// nil and the version has no stats. brier
// holds the last RollingWindow Brier contributions: it grows to that
// length, then next is its oldest slot, which the next contribution
// overwrites. labels counts every contribution, aged-out ones included.
// graded marks a row the current label batch graded. brierHist and
// loglossHist are the version's crashprone_online_brier and
// crashprone_online_logloss series, looked up at its first match, and
// windowGauge its crashprone_online_brier_window series, looked up when
// the window is first published.
type versionStats struct {
	version                string
	brier                  []float64
	next                   int
	labels                 uint64
	baseline               float64
	pinned                 bool
	graded                 bool
	brierHist, loglossHist *metrics.Histogram
	windowGauge            *metrics.FloatGauge
}

// addBrier puts one Brier contribution into the window. A non-finite one
// (a served risk far outside [0, 1], which an artifact's leaf values do
// not rule out) is dropped and not counted, as the histograms drop it, so
// it cannot poison the mean. Caller holds mf.mu.
func (st *versionStats) addBrier(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	st.labels++
	if len(st.brier) < cap(st.brier) {
		st.brier = append(st.brier, v)
		return
	}
	st.brier[st.next] = v
	st.next = (st.next + 1) % len(st.brier)
}

// brierMean is the windowed Brier: the mean of the contributions in the
// window, summed in slice order, or NaN while it is empty, so no caller
// mistakes "no data" for a perfect score. Caller holds mf.mu.
func (st *versionStats) brierMean() float64 {
	if len(st.brier) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range st.brier {
		sum += v
	}
	return sum / float64(len(st.brier))
}

// publishWindow sets the version's crashprone_online_brier_window gauge
// to w, its windowed Brier. An empty window's NaN is not published, so
// no series reads a placeholder as a score. Caller holds mf.mu.
func (st *versionStats) publishWindow(w float64, model string, f *feedbackState) {
	if math.IsNaN(w) {
		return
	}
	if st.windowGauge == nil {
		st.windowGauge = f.onlineBrierWindow.With(model, st.version)
	}
	st.windowGauge.Set(w)
}

// modelFeedback is one model's join window and drift state. The ring
// holds the last FeedbackWindow served scores across all versions
// (incumbent and shadow share it). The index is an open-addressing table
// from segment id to the ring slot of the id's newest entry, whose next
// links lead to the id's entries for other versions; it holds slot+1, 0
// meaning empty. Its length, the smallest power of two of at least twice
// the window, keeps it at most half full, so it never grows. The ring
// and the index are allocated by the model's first recorded row, so a
// model that never scores a segment costs only this header. Matched
// entries stay until FIFO eviction so a second label for the same scored
// row is reported as a duplicate, not silently re-counted.
type modelFeedback struct {
	mu       sync.Mutex
	name     string
	window   int
	ring     []scoreEntry
	next     int
	index    []int32
	seed     maphash.Seed
	versions []versionStats
	firing   bool
}

// feedbackState is the server's feedback subsystem: per-model join
// windows plus the currently staged shadow candidate set. onlineBrier,
// onlineLogloss and onlineBrierWindow are the {model, version} families
// that each version row takes its three series from.
type feedbackState struct {
	window  int
	rolling int
	min     int

	onlineBrier, onlineLogloss *metrics.HistogramVec
	onlineBrierWindow          *metrics.FloatGaugeVec

	mu     sync.Mutex
	models map[string]*modelFeedback
	shadow *Staged
}

func newFeedbackState(cfg Config) *feedbackState {
	return &feedbackState{
		window:  cfg.FeedbackWindow,
		rolling: cfg.RollingWindow,
		min:     cfg.MinFeedback,
		models:  make(map[string]*modelFeedback),
	}
}

// forModel returns the model's feedback record, creating it on first use.
func (f *feedbackState) forModel(name string) *modelFeedback {
	f.mu.Lock()
	defer f.mu.Unlock()
	mf := f.models[name]
	if mf == nil {
		mf = &modelFeedback{name: name, window: f.window}
		f.models[name] = mf
	}
	return mf
}

// candidateFor returns the staged shadow candidate for the named model,
// or nil when none is staged or the candidate is byte-identical to the
// incumbent (shadow-scoring yourself proves nothing).
func (f *feedbackState) candidateFor(name, incumbentVersion string) *Model {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.shadow == nil {
		return nil
	}
	c := f.shadow.models[name]
	if c == nil || c.Version == incumbentVersion {
		return nil
	}
	return c
}

// statsLocked returns the version's stats, or nil until a label has
// matched one of its scores. Caller holds mf.mu.
func (mf *modelFeedback) statsLocked(version string) *versionStats {
	for i := range mf.versions {
		if st := &mf.versions[i]; st.version == version && st.brier != nil {
			return st
		}
	}
	return nil
}

// versionLocked returns version's index in the version table, adding the
// version on its first scored row. Caller holds mf.mu.
func (mf *modelFeedback) versionLocked(version string) int32 {
	for i := range mf.versions {
		if mf.versions[i].version == version {
			return int32(i)
		}
	}
	mf.versions = append(mf.versions, versionStats{version: version})
	return int32(len(mf.versions) - 1)
}

// probeLocked returns the index position that holds id's chain head and
// true, or, when the window holds no entry for id, the empty position
// that ends id's probe run and false. The index is at most half full, so
// every run ends. Caller holds mf.mu; the index exists.
func (mf *modelFeedback) probeLocked(id int64) (int, bool) {
	mask := len(mf.index) - 1
	for p := mf.homeLocked(id); ; p = (p + 1) & mask {
		s := mf.index[p]
		if s == 0 {
			return p, false
		}
		if mf.ring[s-1].id == id {
			return p, true
		}
	}
}

// homeLocked is id's first probe position. The seed is random per window,
// as in Go's maps, so no client can choose segment ids that share one
// probe run. Caller holds mf.mu.
func (mf *modelFeedback) homeLocked(id int64) int {
	return int(maphash.Comparable(mf.seed, id) & uint64(len(mf.index)-1))
}

// headLocked returns the ring slot of id's newest entry, or -1 when the
// window holds none. Caller holds mf.mu.
func (mf *modelFeedback) headLocked(id int64) int32 {
	if mf.index == nil {
		return -1
	}
	if p, ok := mf.probeLocked(id); ok {
		return mf.index[p] - 1
	}
	return -1
}

// recordLocked files one served score of version index v into the join
// window, allocating the window on the model's first recorded row and
// evicting the oldest entry when full. Re-scoring a (segment, version)
// pair overwrites in place — the latest served score is the one a label
// grades. Caller holds mf.mu.
func (mf *modelFeedback) recordLocked(id int64, v int32, risk float64) {
	if mf.ring == nil {
		mf.ring = make([]scoreEntry, mf.window)
		// The smallest power of two of at least twice the window.
		mf.index = make([]int32, 1<<bits.Len(uint(2*mf.window-1)))
		mf.seed = maphash.MakeSeed()
	}
	p, ok := mf.probeLocked(id)
	if ok {
		for slot := mf.index[p] - 1; slot >= 0; slot = mf.ring[slot].next {
			if e := &mf.ring[slot]; e.version() == v {
				e.risk = risk
				e.tag &^= entryMatched
				return
			}
		}
	}
	slot := int32(mf.next)
	if mf.ring[slot].valid() && mf.unlinkLocked(slot) {
		p, ok = mf.probeLocked(id) // the deletion may have shifted id's run
	}
	head := int32(-1)
	if ok {
		head = mf.index[p] - 1
	}
	mf.ring[slot] = scoreEntry{id: id, risk: risk, next: head, tag: entryValid | uint32(v)}
	mf.index[p] = slot + 1
	mf.next = (mf.next + 1) % len(mf.ring)
}

// unlinkLocked removes the entry in ring slot from its segment's chain,
// and the segment from the index when it was the last, reporting whether
// the index changed. Only eviction unlinks, and the evicted entry is the
// oldest in the ring, so it is the tail of its chain: chains are kept
// newest first and re-scoring moves no entry. Caller holds mf.mu.
func (mf *modelFeedback) unlinkLocked(slot int32) bool {
	p, _ := mf.probeLocked(mf.ring[slot].id)
	q := mf.index[p] - 1
	if q == slot {
		mf.deleteLocked(p)
		return true
	}
	for mf.ring[q].next != slot {
		q = mf.ring[q].next
	}
	mf.ring[q].next = -1
	return false
}

// deleteLocked empties index position p by backward shift: each later
// entry of the probe run whose home does not lie in the cyclic range
// (hole, its position] moves back into the hole, so every id stays
// reachable from its home without tombstones. Caller holds mf.mu.
func (mf *modelFeedback) deleteLocked(p int) {
	mask := len(mf.index) - 1
	for q := (p + 1) & mask; mf.index[q] != 0; q = (q + 1) & mask {
		home := mf.homeLocked(mf.ring[mf.index[q]-1].id)
		if (q-home)&mask >= (q-p)&mask {
			mf.index[p] = mf.index[q]
			p = q
		}
	}
	mf.index[p] = 0
}

// Label-join outcomes: gradeLocked returns one as an index into
// outcomeNames, which holds the outcome label values of
// crashprone_feedback_labels_total and the keys of a response's outcomes.
const (
	outcomeMatched = iota
	outcomeDuplicate
	outcomeUnmatched
)

var outcomeNames = [...]string{
	outcomeMatched:   "matched",
	outcomeDuplicate: "duplicate",
	outcomeUnmatched: "unmatched",
}

// gradeLocked grades one label against the join window. For a match it
// writes the per-label Brier and log-loss contributions into the record
// of every version whose served score for the segment was still
// unlabelled: the Brier window and both online histograms, whose
// observes are lock-free. An id with no window entry at all is unmatched
// — the score aged out of the window (or was never served here); an id
// whose entries were all labelled already is a duplicate. A non-empty
// version grades only that version's score. Caller holds mf.mu.
func (mf *modelFeedback) gradeLocked(id int64, y float64, version string, f *feedbackState) int {
	fresh, seen := 0, 0
	for slot := mf.headLocked(id); slot >= 0; slot = mf.ring[slot].next {
		e := &mf.ring[slot]
		st := &mf.versions[e.version()]
		if version != "" && st.version != version {
			continue
		}
		seen++
		if e.matched() {
			continue
		}
		e.tag |= entryMatched
		fresh++
		st.graded = true
		if st.brier == nil {
			st.brier = make([]float64, 0, f.rolling)
			st.brierHist = f.onlineBrier.With(mf.name, st.version)
			st.loglossHist = f.onlineLogloss.With(mf.name, st.version)
		}
		// Only this loop grades with eval's per-point Brier and log-loss;
		// TestFeedbackScoringMatchesInlineFormulas pins their bits to the
		// inline formulas the loop computed before.
		brier := eval.BrierPoint(e.risk, y)
		st.addBrier(brier)
		st.brierHist.Observe(brier)
		st.loglossHist.Observe(eval.LogLossPoint(e.risk, y))
	}
	switch {
	case fresh > 0:
		return outcomeMatched
	case seen > 0:
		return outcomeDuplicate
	default:
		return outcomeUnmatched
	}
}

// publishGradedLocked publishes the windowed Brier of every version the
// label batch just graded, the serving one and a staged candidate's
// alike, and clears the batch's marks. It is the gauge's one writer: a
// version's mean changes only when a label grades it. Caller holds mf.mu.
func (mf *modelFeedback) publishGradedLocked(f *feedbackState) {
	for i := range mf.versions {
		st := &mf.versions[i]
		if st.graded {
			st.publishWindow(st.brierMean(), mf.name, f)
		}
		st.graded = false
	}
}

// evaluateDrift pins the incumbent version's baseline once it has seen
// MinFeedback labels, then applies the hysteresis: the alarm fires when
// the windowed Brier reaches baseline×DriftFire and clears only when it
// falls back to baseline×DriftClear — the gap keeps a metric hovering at
// the threshold from flapping the alarm. It returns whether the model's
// alarm is firing.
func (s *Server) evaluateDrift(name, version string) bool {
	mf := s.feedback.forModel(name)
	mf.mu.Lock()
	st := mf.statsLocked(version)
	if st == nil {
		firing := mf.firing
		mf.mu.Unlock()
		return firing
	}
	w := st.brierMean()
	if !st.pinned && st.labels >= uint64(s.feedback.min) {
		st.baseline = w
		st.pinned = true
	}
	if st.pinned {
		switch {
		case !mf.firing && w >= st.baseline*s.cfg.DriftFire:
			mf.firing = true
		case mf.firing && w <= st.baseline*s.cfg.DriftClear:
			mf.firing = false
		}
	}
	firing, pinned, baseline := mf.firing, st.pinned, st.baseline
	mf.mu.Unlock()

	if pinned {
		s.driftBaseline.With(name).Set(baseline)
	}
	alarm := int64(0)
	if firing {
		alarm = 1
	}
	s.driftAlarm.With(name).Set(alarm)
	return firing
}

// observeScores files a scored batch into the feedback loop: incumbent
// scores join the label window under the incumbent's version, and when a
// differing candidate is staged the same batch is shadow-scored —
// recorded under the candidate's version, never returned to the client.
// A row whose segment_id has no join key (segmentKey) is scored and
// answered but not filed. A shadow failure (schema mismatch, non-finite
// score) is counted and otherwise ignored; shadowing must not be able to
// break serving.
func (s *Server) observeScores(name string, m *Model, batch *data.Batch, scores []float64) {
	cand := s.feedback.candidateFor(name, m.Version)
	var candScores []float64
	if cand != nil {
		bs := artifact.NewBatchScorerFor(cand.Scorer, cand.Mapper)
		out, err := bs.ScoreBatch(batch)
		if err != nil {
			s.shadowRows.With(name, "error").Add(uint64(batch.Len()))
		} else {
			candScores = out
			s.shadowRows.With(name, "scored").Add(uint64(len(out)))
		}
	}
	if m.segCol < 0 {
		return
	}
	ids := batch.Col(m.segCol)
	mf := s.feedback.forModel(name)
	mf.mu.Lock()
	v, cv := mf.versionLocked(m.Version), int32(-1)
	if candScores != nil {
		cv = mf.versionLocked(cand.Version)
	}
	for i, risk := range scores {
		id, ok := segmentKey(ids[i])
		if !ok {
			continue
		}
		mf.recordLocked(id, v, risk)
		if candScores != nil && artifact.IsFinite(candScores[i]) {
			mf.recordLocked(id, cv, candScores[i])
		}
	}
	mf.mu.Unlock()
}

// feedbackBufs is the reusable storage of one /feedback request: the body
// read buffer and the decoded label columns.
type feedbackBufs struct {
	body []byte
	req  data.FeedbackRequest
}

var feedbackBufPool = sync.Pool{New: func() any { return new(feedbackBufs) }}

// putFeedbackBufs pools b unless a large request grew it: the label
// columns (8 bytes a label each) get the byte buffers' 1 MiB cap.
func putFeedbackBufs(b *feedbackBufs) {
	if cap(b.body) > maxPooledBuf {
		b.body = nil
	}
	if 8*max(cap(b.req.IDs), cap(b.req.Labels)) > maxPooledBuf {
		b.req.IDs, b.req.Labels = nil, nil
	}
	feedbackBufPool.Put(b)
}

// handleFeedback ingests delayed labels: POST {"model": ..., "labels":
// [{"segment_id": ..., "crash_prone": ...}, ...]}. As on /score, the body
// is read whole into a pooled buffer and decoded in one pass, here into
// pooled label columns. The request is validated whole before any label
// is applied, every label is graded matched/duplicate/unmatched against
// the join window under one hold of the model's lock, which then
// publishes the windowed Brier of each version the batch graded, the
// model's drift alarm is re-evaluated, and — with AutoPromote on — the
// promotion gate runs.
func (s *Server) handleFeedback(w http.ResponseWriter, req *http.Request) {
	// The /score deadline: RequestTimeout covers reading the labels and
	// writing the answer, so a stalled sender gets its 400 (see ReadBody).
	rc := http.NewResponseController(w)
	setDeadlines(rc, time.Now().Add(s.cfg.RequestTimeout))
	defer setDeadlines(rc, time.Time{})
	bufs := feedbackBufPool.Get().(*feedbackBufs)
	defer putFeedbackBufs(bufs)
	body, err := ReadBody(w, req, s.cfg.MaxBodyBytes, bufs.body)
	bufs.body = body
	if err != nil {
		writeBodyError(w, err)
		return
	}
	fr := &bufs.req
	m, status, msg := s.parseFeedback(body, fr)
	if status != http.StatusOK {
		writeError(w, status, msg)
		return
	}

	mf := s.feedback.forModel(fr.Model)
	var counts [len(outcomeNames)]int
	mf.mu.Lock()
	for i, id := range fr.IDs {
		key, _ := segmentKey(id) // parseFeedback admitted only ids with a key
		counts[mf.gradeLocked(key, fr.Labels[i], fr.Version, s.feedback)]++
	}
	mf.publishGradedLocked(s.feedback)
	mf.mu.Unlock()
	outcomes := make(map[string]int, len(counts))
	for o, n := range counts {
		if n > 0 {
			outcomes[outcomeNames[o]] = n
			s.fbLabels.With(fr.Model, outcomeNames[o]).Add(uint64(n))
		}
	}
	resp := FeedbackResponse{Model: fr.Model, Outcomes: outcomes, Alarm: s.evaluateDrift(fr.Model, m.Version)}
	if s.cfg.AutoPromote {
		if promoted, _, err := s.tryPromote(); err == nil {
			resp.Promoted = promoted
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// parseFeedback decodes a /feedback body into fr and validates it whole,
// before any label is applied. It reports the first problem in this
// order: malformed body, missing model name, unknown model (404), unknown
// version (404), no labels, then the lowest bad label. It returns the
// serving model and 200, or the status and message to answer with. An
// unknown model's labels are counted under model="", the one label value
// a client cannot grow: only a name the registry resolves labels a series.
func (s *Server) parseFeedback(body []byte, fr *data.FeedbackRequest) (*Model, int, string) {
	if err := data.ParseFeedbackRequest(body, fr); err != nil {
		return nil, http.StatusBadRequest, fmt.Sprintf("malformed request: %v", err)
	}
	if fr.Model == "" {
		return nil, http.StatusBadRequest, "missing model name"
	}
	m, ok := s.reg.Get(fr.Model)
	if !ok {
		s.fbLabels.With("", "unknown_model").Add(uint64(len(fr.IDs)))
		return nil, http.StatusNotFound, fmt.Sprintf("unknown model %q", fr.Model)
	}
	if fr.Version != "" && !s.knownVersion(fr.Model, m, fr.Version) {
		s.fbLabels.With(fr.Model, "unknown_version").Add(uint64(len(fr.IDs)))
		return nil, http.StatusNotFound,
			fmt.Sprintf("unknown version %q for model %q (serving %s)", fr.Version, fr.Model, m.Version)
	}
	if len(fr.IDs) == 0 {
		return nil, http.StatusBadRequest, "no labels to ingest"
	}
	for i, id := range fr.IDs {
		_, ok := segmentKey(id)
		switch {
		case data.IsMissing(id):
			return nil, http.StatusBadRequest, fmt.Sprintf("label %d: missing segment_id", i)
		case !ok:
			return nil, http.StatusBadRequest, fmt.Sprintf("label %d: segment_id %v is not an integer in int64 range", i, id)
		case data.IsMissing(fr.Labels[i]):
			return nil, http.StatusBadRequest, fmt.Sprintf("label %d: missing crash_prone", i)
		}
	}
	return m, http.StatusOK, ""
}

// knownVersion reports whether version names the incumbent, the staged
// shadow candidate, or a version the join window has stats for (a just-
// replaced incumbent whose late labels are still arriving).
func (s *Server) knownVersion(name string, m *Model, version string) bool {
	if version == m.Version {
		return true
	}
	if c := s.feedback.candidateFor(name, m.Version); c != nil && c.Version == version {
		return true
	}
	mf := s.feedback.forModel(name)
	mf.mu.Lock()
	ok := mf.statsLocked(version) != nil
	mf.mu.Unlock()
	return ok
}

// handleShadow answers GET with the shadow status and POST by staging the
// reload directory's artifacts as shadow candidates: decoded and compiled
// via the same PrepareDir as a two-phase reload, scored against live
// traffic from now on, and committed only by the promotion gate.
func (s *Server) handleShadow(w http.ResponseWriter, req *http.Request) {
	switch req.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.shadowStatus())
	case http.MethodPost:
		staged, err := s.reg.PrepareDir(s.cfg.ReloadDir)
		if err != nil {
			s.promotions.With("stage_error").Inc()
			writeError(w, http.StatusInternalServerError,
				fmt.Sprintf("shadow stage failed, nothing staged: %v", err))
			return
		}
		s.feedback.mu.Lock()
		s.feedback.shadow = staged
		s.feedback.mu.Unlock()
		s.promotions.With("staged").Inc()
		writeJSON(w, http.StatusOK, s.shadowStatus())
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleShadowAbort drops the staged shadow set. Idempotent, like
// /reload/abort.
func (s *Server) handleShadowAbort(w http.ResponseWriter, req *http.Request) {
	s.feedback.mu.Lock()
	had := s.feedback.shadow != nil
	s.feedback.shadow = nil
	s.feedback.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"aborted": had})
}

// shadowStatus snapshots the staged candidates against their incumbents.
func (s *Server) shadowStatus() ShadowStatus {
	s.feedback.mu.Lock()
	staged := s.feedback.shadow
	s.feedback.mu.Unlock()
	if staged == nil {
		return ShadowStatus{}
	}
	status := ShadowStatus{Staged: true}
	for _, name := range staged.names {
		cand := staged.models[name]
		cs := CandidateStatus{Model: name, CandidateVersion: cand.Version}
		if inc, ok := s.reg.Get(name); ok {
			cs.IncumbentVersion = inc.Version
			cs.Identical = inc.Version == cand.Version
			cs.IncumbentBrier, cs.IncumbentLabels = s.versionBrier(name, inc.Version)
		}
		cs.CandidateBrier, cs.CandidateLabels = s.versionBrier(name, cand.Version)
		// An unlabelled side's mean is NaN, which JSON cannot carry.
		if math.IsNaN(cs.IncumbentBrier) {
			cs.IncumbentBrier = 0
		}
		if math.IsNaN(cs.CandidateBrier) {
			cs.CandidateBrier = 0
		}
		status.Candidates = append(status.Candidates, cs)
	}
	return status
}

// versionBrier reads one version's windowed Brier mean and label count.
func (s *Server) versionBrier(name, version string) (float64, uint64) {
	mf := s.feedback.forModel(name)
	mf.mu.Lock()
	defer mf.mu.Unlock()
	st := mf.statsLocked(version)
	if st == nil {
		return math.NaN(), 0
	}
	return st.brierMean(), st.labels
}

// handlePromote runs the promotion gate on demand: 200 with the promoted
// names when the staged candidates beat their incumbents, 409 with the
// gate's reason otherwise.
func (s *Server) handlePromote(w http.ResponseWriter, req *http.Request) {
	promoted, names, err := s.tryPromote()
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{Promoted: promoted, Models: names})
}

// tryPromote is the gate: every staged candidate that differs from its
// incumbent must have at least MinFeedback joined labels on both sides
// and a windowed Brier at least PromoteMargin (relative) better than the
// incumbent's. On pass the staged set commits through the same
// infallible swap as /reload/commit, the new incumbents' baselines are
// re-pinned at their current windowed Brier, and the drift alarms clear.
// On any failing candidate nothing is committed.
func (s *Server) tryPromote() (promoted, names []string, err error) {
	s.feedback.mu.Lock()
	staged := s.feedback.shadow
	s.feedback.mu.Unlock()
	if staged == nil {
		s.promotions.With("no_candidate").Inc()
		return nil, nil, fmt.Errorf("no shadow candidate staged (POST /shadow first)")
	}

	for _, name := range staged.names {
		cand := staged.models[name]
		inc, ok := s.reg.Get(name)
		if !ok || inc.Version == cand.Version {
			continue // new or identical model: nothing to beat
		}
		candBrier, candLabels := s.versionBrier(name, cand.Version)
		incBrier, incLabels := s.versionBrier(name, inc.Version)
		min := uint64(s.feedback.min)
		if candLabels < min || incLabels < min {
			s.promotions.With("rejected_labels").Inc()
			return nil, nil, fmt.Errorf(
				"model %q: not enough joined labels to judge (candidate %d, incumbent %d, need %d each)",
				name, candLabels, incLabels, min)
		}
		if !(candBrier < incBrier*(1-s.cfg.PromoteMargin)) {
			s.promotions.With("rejected_margin").Inc()
			return nil, nil, fmt.Errorf(
				"model %q: candidate windowed Brier %.4f does not beat incumbent %.4f by the %.0f%% margin",
				name, candBrier, incBrier, s.cfg.PromoteMargin*100)
		}
		promoted = append(promoted, name)
	}
	if len(promoted) == 0 {
		s.promotions.With("no_change").Inc()
		return nil, nil, fmt.Errorf("staged candidates are identical to the serving set; nothing to promote")
	}

	names = staged.Commit()
	s.feedback.mu.Lock()
	s.feedback.shadow = nil
	s.feedback.mu.Unlock()
	s.promotions.With("promoted").Inc()

	// The promoted version becomes the drift reference: pin its baseline
	// at its current windowed Brier and clear the alarm — the old
	// baseline described a model that is no longer serving.
	for _, name := range promoted {
		cand := staged.models[name]
		mf := s.feedback.forModel(name)
		mf.mu.Lock()
		if st := mf.statsLocked(cand.Version); st != nil {
			st.baseline = st.brierMean()
			st.pinned = true
		}
		mf.firing = false
		mf.mu.Unlock()
		s.evaluateDrift(name, cand.Version)
	}
	return promoted, names, nil
}

// driftDetail is the /healthz feedback block: per-model alarm state,
// windowed Brier, pinned baseline and joined-label count for the
// version currently serving.
func (s *Server) driftDetail() map[string]any {
	detail := make(map[string]any)
	for _, m := range s.reg.Models() {
		name := m.Artifact.Name
		mf := s.feedback.forModel(name)
		mf.mu.Lock()
		entry := map[string]any{"version": m.Version, "alarm": mf.firing}
		if st := mf.statsLocked(m.Version); st != nil {
			if w := st.brierMean(); !math.IsNaN(w) {
				entry["brier_window"] = w
			}
			if st.pinned {
				entry["baseline"] = st.baseline
			}
			entry["labels"] = st.labels
		}
		mf.mu.Unlock()
		detail[name] = entry
	}
	return detail
}
