package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"roadcrash/internal/geo"
)

// The checkers compare served answers with the offline reference. Risks are
// compared bit for bit after strconv.ParseFloat, never as bytes, so any
// float rendering that round-trips passes.

var (
	keyRisk   = []byte(`"risk":`)
	keyCell   = []byte(`"cell":`)
	keyX      = []byte(`"x_km":`)
	keyY      = []byte(`"y_km":`)
	keyCells  = []byte(`"cells":[`)
	crashTrue = []byte(`,"crash_prone":true}`)
	crashFals = []byte(`,"crash_prone":false}`)
)

// numberAfter finds key in body at or after pos and parses the JSON number
// that follows it. It returns the number and the offset just past it.
func numberAfter(body []byte, pos int, key []byte) (float64, int, error) {
	i := bytes.Index(body[pos:], key)
	if i < 0 {
		return 0, pos, fmt.Errorf("no %s after offset %d", key, pos)
	}
	start := pos + i + len(key)
	end := start
	for end < len(body) && body[end] != ',' && body[end] != '}' && body[end] != ']' {
		end++
	}
	if end == start {
		return 0, end, fmt.Errorf("empty number after %s at offset %d", key, start)
	}
	// ParseFloat does not keep its argument, so the zero-copy view is safe.
	v, err := strconv.ParseFloat(unsafe.String(&body[start], end-start), 64)
	if err != nil {
		return 0, end, fmt.Errorf("bad number after %s: %v", key, err)
	}
	return v, end, nil
}

// checkRisks verifies the {"risk":R,"crash_prone":B} elements of a /score
// response or the score lines of a /score/stream response against want, in
// order, and returns the offset after the last one.
func checkRisks(body []byte, want []float64) (int, error) {
	pos := 0
	for i, w := range want {
		v, end, err := numberAfter(body, pos, keyRisk)
		if err != nil {
			return pos, fmt.Errorf("score %d: %v", i, err)
		}
		if math.Float64bits(v) != math.Float64bits(w) {
			return pos, fmt.Errorf("score %d: risk %v, reference %v", i, v, w)
		}
		flag := crashFals
		if w >= 0.5 {
			flag = crashTrue
		}
		if !bytes.HasPrefix(body[end:], flag) {
			return pos, fmt.Errorf("score %d: crash_prone flag disagrees with risk %v", i, w)
		}
		pos = end + len(flag)
	}
	if bytes.Contains(body[pos:], keyRisk) {
		return pos, fmt.Errorf("more scores than the %d rows sent", len(want))
	}
	return pos, nil
}

// checkScore verifies a /score response body.
func checkScore(body []byte, want []float64) error {
	pos, err := checkRisks(body, want)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(body[pos:]), []byte("]}")) {
		return fmt.Errorf("response does not close after %d scores", len(want))
	}
	return nil
}

// checkStream verifies a /score/stream response: one score line per row,
// then a trailer reporting success and the row count.
func checkStream(body []byte, want []float64) error {
	pos, err := checkRisks(body, want)
	if err != nil {
		return err
	}
	tail := bytes.TrimSpace(body[pos:])
	if len(tail) == 0 {
		return fmt.Errorf("stream has no trailer")
	}
	var tr struct {
		Done  bool   `json:"done"`
		Rows  int    `json:"rows"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(tail, &tr); err != nil {
		return fmt.Errorf("stream trailer %q: %v", tail, err)
	}
	if !tr.Done || tr.Rows != len(want) || tr.Error != "" {
		return fmt.Errorf("stream trailer %q, want done with %d rows", tail, len(want))
	}
	return nil
}

// checkCells verifies a /hotspots response's ranked cells: index, centre
// and risk of every cell, in order.
func checkCells(body []byte, want []geo.CellRisk) error {
	pos := bytes.Index(body, keyCells)
	if pos < 0 {
		return fmt.Errorf("response has no cells")
	}
	for i, c := range want {
		var got [4]float64
		for f, key := range [][]byte{keyCell, keyX, keyY, keyRisk} {
			v, end, err := numberAfter(body, pos, key)
			if err != nil {
				return fmt.Errorf("cell %d: %v", i, err)
			}
			got[f], pos = v, end
		}
		wantF := [4]float64{float64(c.Cell), c.XKm, c.YKm, c.Risk}
		for f := range got {
			if math.Float64bits(got[f]) != math.Float64bits(wantF[f]) {
				return fmt.Errorf("cell %d: got (%v, %v, %v, %v), reference %+v", i, got[0], got[1], got[2], got[3], c)
			}
		}
	}
	if bytes.Contains(body[pos:], keyCell) {
		return fmt.Errorf("more than the %d reference cells", len(want))
	}
	return nil
}

// checkFeedback parses a /feedback answer and returns its matched count.
func checkFeedback(body []byte, labels int) (int, error) {
	var fr struct {
		Outcomes map[string]int `json:"outcomes"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return 0, fmt.Errorf("feedback answer: %v", err)
	}
	n := 0
	for _, c := range fr.Outcomes {
		n += c
	}
	if n != labels {
		return 0, fmt.Errorf("feedback graded %d of %d labels", n, labels)
	}
	return fr.Outcomes["matched"], nil
}
