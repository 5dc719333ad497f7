package stats

import (
	"fmt"
	"math"
)

// ChiSquareResult is the outcome of a chi-square test of independence on a
// contingency table — the decision-tree split criterion in the paper
// ("decision trees, using with chi-square test on a Boolean target").
type ChiSquareResult struct {
	Statistic float64
	DF        float64
	PValue    float64
}

// ChiSquareIndependence runs Pearson's chi-square test of independence on
// the observed contingency table (rows × columns). Rows or columns whose
// marginal total is zero are ignored for the degrees-of-freedom count.
// It returns an error for tables with fewer than 2 effective rows/columns.
func ChiSquareIndependence(observed [][]float64) (ChiSquareResult, error) {
	rows := len(observed)
	if rows == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: empty contingency table")
	}
	cols := len(observed[0])
	rowTot := make([]float64, rows)
	colTot := make([]float64, cols)
	grand := 0.0
	for i, row := range observed {
		if len(row) != cols {
			return ChiSquareResult{}, fmt.Errorf("stats: ragged contingency table")
		}
		for j, v := range row {
			if v < 0 {
				return ChiSquareResult{}, fmt.Errorf("stats: negative cell count %v", v)
			}
			rowTot[i] += v
			colTot[j] += v
			grand += v
		}
	}
	if grand == 0 {
		return ChiSquareResult{}, fmt.Errorf("stats: contingency table has no mass")
	}
	effRows, effCols := 0, 0
	for _, t := range rowTot {
		if t > 0 {
			effRows++
		}
	}
	for _, t := range colTot {
		if t > 0 {
			effCols++
		}
	}
	if effRows < 2 || effCols < 2 {
		return ChiSquareResult{}, fmt.Errorf("stats: degenerate contingency table (%d×%d effective)", effRows, effCols)
	}
	stat := 0.0
	for i := range observed {
		for j := range observed[i] {
			expected := rowTot[i] * colTot[j] / grand
			if expected == 0 {
				continue
			}
			d := observed[i][j] - expected
			stat += d * d / expected
		}
	}
	df := float64((effRows - 1) * (effCols - 1))
	return ChiSquareResult{Statistic: stat, DF: df, PValue: ChiSquareSF(stat, df)}, nil
}

// AnovaResult is the outcome of a one-way analysis of variance — the test
// the paper uses in phase 3 to show cluster crash-count means differ
// ("resulting ANOVA p-value of 0").
type AnovaResult struct {
	FStatistic     float64
	DFBetween      float64
	DFWithin       float64
	PValue         float64
	SSBetween      float64
	SSWithin       float64
	GroupMeans     []float64
	GrandMean      float64
	EtaSquared     float64 // SSBetween / SSTotal, effect size
	GroupSizes     []int
	EffectiveGroup int // number of non-empty groups
}

// OneWayANOVA runs a one-way ANOVA across the groups. Empty groups are
// skipped. It returns an error when fewer than two non-empty groups exist or
// when every group has a single observation.
func OneWayANOVA(groups [][]float64) (AnovaResult, error) {
	var res AnovaResult
	grandSum := 0.0
	grandN := 0
	for _, g := range groups {
		res.GroupSizes = append(res.GroupSizes, len(g))
		if len(g) == 0 {
			res.GroupMeans = append(res.GroupMeans, math.NaN())
			continue
		}
		res.EffectiveGroup++
		m := Mean(g)
		res.GroupMeans = append(res.GroupMeans, m)
		grandSum += m * float64(len(g))
		grandN += len(g)
	}
	if res.EffectiveGroup < 2 {
		return res, fmt.Errorf("stats: ANOVA needs at least two non-empty groups, have %d", res.EffectiveGroup)
	}
	res.GrandMean = grandSum / float64(grandN)
	for gi, g := range groups {
		if len(g) == 0 {
			continue
		}
		dm := res.GroupMeans[gi] - res.GrandMean
		res.SSBetween += float64(len(g)) * dm * dm
		for _, x := range g {
			d := x - res.GroupMeans[gi]
			res.SSWithin += d * d
		}
	}
	res.DFBetween = float64(res.EffectiveGroup - 1)
	res.DFWithin = float64(grandN - res.EffectiveGroup)
	if res.DFWithin <= 0 {
		return res, fmt.Errorf("stats: ANOVA has no within-group degrees of freedom")
	}
	msBetween := res.SSBetween / res.DFBetween
	msWithin := res.SSWithin / res.DFWithin
	if msWithin == 0 {
		res.FStatistic = math.Inf(1)
		res.PValue = 0
	} else {
		res.FStatistic = msBetween / msWithin
		res.PValue = FSF(res.FStatistic, res.DFBetween, res.DFWithin)
	}
	if tot := res.SSBetween + res.SSWithin; tot > 0 {
		res.EtaSquared = res.SSBetween / tot
	}
	return res, nil
}
