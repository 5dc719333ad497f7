package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"roadcrash/internal/artifact"
	"roadcrash/internal/geo"
)

// defaultHotspotK is the cell count GET /hotspots returns when the request
// carries no k parameter.
const defaultHotspotK = 10

// HotspotsResponse answers GET /hotspots: the k highest-risk grid cells of
// a served hotspot artifact, ranked exactly as the offline evaluation
// ranks them (descending risk, ties on the lower cell index), plus the
// grid geometry a client needs to place the cells on a map.
type HotspotsResponse struct {
	Model  string         `json:"model"`
	Kind   artifact.Kind  `json:"kind"`
	Method string         `json:"method"`
	Grid   geo.Grid       `json:"grid"`
	K      int            `json:"k"`
	Cells  []geo.CellRisk `json:"cells"`
}

// handleHotspots serves GET /hotspots?model=NAME&k=N. The model parameter
// may be omitted when exactly one hotspot model is loaded; k defaults to
// defaultHotspotK and is clamped to the grid's cell count. The ranking
// comes straight from the served surface, so it agrees bit-for-bit with an
// in-process TopCells on the same fitted model.
func (s *Server) handleHotspots(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	name := q.Get("model")
	var m *Model
	if name == "" {
		for _, cand := range s.reg.Models() {
			if cand.Artifact.Kind != artifact.KindHotspot {
				continue
			}
			if m != nil {
				writeError(w, http.StatusBadRequest,
					"several hotspot models loaded, pick one with ?model=")
				return
			}
			m = cand
		}
		if m == nil {
			writeError(w, http.StatusNotFound, "no hotspot model loaded")
			return
		}
		name = m.Artifact.Name
	} else {
		mm, ok := s.reg.Get(name)
		if !ok {
			writeError(w, http.StatusNotFound, unknownModelError(name).Error())
			return
		}
		m = mm
	}
	if m.Artifact.Kind != artifact.KindHotspot {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("model %q is kind %q, not a hotspot surface", name, m.Artifact.Kind))
		return
	}
	gm, ok := m.Scorer.(*geo.Model)
	if !ok {
		// Unreachable: the compile step passes *geo.Model through unchanged.
		writeError(w, http.StatusInternalServerError,
			fmt.Sprintf("model %q did not load as a hotspot surface", name))
		return
	}
	k := defaultHotspotK
	if raw := q.Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("k must be a positive integer, got %q", raw))
			return
		}
		k = v
	}
	s.modelReqs.With(name, "hotspots").Inc()
	cells := gm.TopCells(k)
	s.rows.With(name).Add(uint64(len(cells)))
	writeJSON(w, http.StatusOK, HotspotsResponse{
		Model: name, Kind: m.Artifact.Kind, Method: gm.Method,
		Grid: gm.Grid, K: len(cells), Cells: cells,
	})
}
