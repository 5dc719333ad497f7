package eval

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Hotspot ranking metrics. The grid-cell workload scores every cell of the
// study region and asks how much of the next period's crash mass the
// highest-scored cells capture — the operational question behind black-spot
// programs: if the agency can only treat k sites, how many future crashes
// happen at the chosen sites?

// TopKOrder returns the indices of scores sorted descending, ties broken
// by the lower index, so rankings are deterministic and independent of
// sort internals. It is the one hotspot ranking: HitRateAtK scores a
// ranking with it and geo.Model ranks its cells with it once. The indices
// are int32, 4 bytes a cell, so scores must hold fewer than 2^31 values;
// a geo.Grid never has more cells. A NaN score ranks last.
func TopKOrder(scores []float64) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	// The comparison is a total order (no two indices compare equal), so
	// an unstable sort gives the one deterministic result.
	slices.SortFunc(idx, func(a, b int32) int {
		if c := cmp.Compare(scores[b], scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return idx
}

// checkRanking validates a score/crash-count pairing for the hit-rate
// metrics. Crashes are the next-period per-cell crash counts; the metric
// is undefined when no crash occurred at all, and a NaN score would make
// the ranking meaningless, so both error crisply.
func checkRanking(name string, scores, crashes []float64) (total float64, err error) {
	if len(scores) != len(crashes) {
		return 0, fmt.Errorf("eval: %s with %d scores but %d cells of crashes", name, len(scores), len(crashes))
	}
	if len(scores) == 0 {
		return 0, fmt.Errorf("eval: %s on empty input", name)
	}
	for i, s := range scores {
		if math.IsNaN(s) {
			return 0, fmt.Errorf("eval: %s score %d is NaN", name, i)
		}
		if crashes[i] < 0 || math.IsNaN(crashes[i]) {
			return 0, fmt.Errorf("eval: %s crash count %d is %v", name, i, crashes[i])
		}
		total += crashes[i]
	}
	if total == 0 {
		return 0, fmt.Errorf("eval: %s undefined with zero next-period crashes", name)
	}
	return total, nil
}

// HitRateAtK returns the fraction of next-period crashes captured by the k
// highest-scored cells. Ties break on the lower cell index, so equal-score
// rankings are deterministic.
func HitRateAtK(scores, crashes []float64, k int) (float64, error) {
	total, err := checkRanking("HitRateAtK", scores, crashes)
	if err != nil {
		return math.NaN(), err
	}
	if k <= 0 || k > len(scores) {
		return math.NaN(), fmt.Errorf("eval: HitRateAtK k=%d outside [1, %d]", k, len(scores))
	}
	hit := 0.0
	for _, i := range TopKOrder(scores)[:k] {
		hit += crashes[i]
	}
	return hit / total, nil
}
