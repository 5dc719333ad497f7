package data

import (
	"fmt"
	"math"

	"roadcrash/internal/rng"
)

// StratifiedSplit splits while preserving the class mix of binary column
// target in both sides — important for the paper's extremely unbalanced
// CP-32 and CP-64 datasets, where a plain split can lose the whole minority
// class from the validation side.
func (d *Dataset) StratifiedSplit(r *rng.Source, frac float64, target int) (train, valid *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("data: split fraction %v outside (0,1)", frac)
	}
	if target < 0 || target >= len(d.attrs) {
		return nil, nil, fmt.Errorf("data: target column %d out of range", target)
	}
	var pos, neg []int
	for i, v := range d.cols[target] {
		if v == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	var trainIdx, validIdx []int
	for _, class := range [][]int{neg, pos} {
		if len(class) == 0 {
			continue
		}
		r.Shuffle(len(class), func(i, j int) { class[i], class[j] = class[j], class[i] })
		cut := int(math.Round(frac * float64(len(class))))
		// Keep at least one instance of a non-empty class on each side when
		// the class has two or more members.
		if len(class) >= 2 {
			if cut == 0 {
				cut = 1
			}
			if cut == len(class) {
				cut = len(class) - 1
			}
		}
		trainIdx = append(trainIdx, class[:cut]...)
		validIdx = append(validIdx, class[cut:]...)
	}
	if len(trainIdx) == 0 || len(validIdx) == 0 {
		return nil, nil, fmt.Errorf("data: stratified split left an empty side")
	}
	r.Shuffle(len(trainIdx), func(i, j int) { trainIdx[i], trainIdx[j] = trainIdx[j], trainIdx[i] })
	r.Shuffle(len(validIdx), func(i, j int) { validIdx[i], validIdx[j] = validIdx[j], validIdx[i] })
	return d.Subset(d.name+"/train", trainIdx), d.Subset(d.name+"/valid", validIdx), nil
}

// KFold returns k (train, valid) index pairs covering the dataset, after a
// shuffle. Used for the paper's "10 times cross-validation" on the
// supporting models. It returns an error when k < 2 or k > n.
func (d *Dataset) KFold(r *rng.Source, k int) ([][2][]int, error) {
	if k < 2 || k > d.n {
		return nil, fmt.Errorf("data: k-fold with k=%d on %d instances", k, d.n)
	}
	perm := r.Perm(d.n)
	folds := make([][]int, k)
	for i, p := range perm {
		folds[i%k] = append(folds[i%k], p)
	}
	out := make([][2][]int, k)
	for f := 0; f < k; f++ {
		var train []int
		for g := 0; g < k; g++ {
			if g != f {
				train = append(train, folds[g]...)
			}
		}
		out[f] = [2][]int{train, folds[f]}
	}
	return out, nil
}

// Undersample balances the binary target by sampling the majority class
// down to ratio × (minority count). The paper discusses this pre-processing
// remedy for unbalanced classes and rejects it in favour of MCPV assessment;
// the ablation bench compares both. ratio must be >= 1.
func (d *Dataset) Undersample(r *rng.Source, target int, ratio float64) (*Dataset, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("data: undersample ratio %v < 1", ratio)
	}
	if target < 0 || target >= len(d.attrs) {
		return nil, fmt.Errorf("data: target column %d out of range", target)
	}
	var pos, neg []int
	for i, v := range d.cols[target] {
		if v == 1 {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	minor, major := pos, neg
	if len(pos) > len(neg) {
		minor, major = neg, pos
	}
	if len(minor) == 0 {
		return nil, fmt.Errorf("data: undersample with a single class")
	}
	keep := int(math.Round(ratio * float64(len(minor))))
	if keep > len(major) {
		keep = len(major)
	}
	r.Shuffle(len(major), func(i, j int) { major[i], major[j] = major[j], major[i] })
	idx := append(append([]int(nil), minor...), major[:keep]...)
	r.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	return d.Subset(d.name+"/balanced", idx), nil
}

// CountThresholdTarget derives the paper's crash-proneness target: a binary
// column that is 1 when countAttr > threshold ("Crash prone 2, for example,
// compares ... roads with 0, 1 or 2 crashes as the non-crash prone road
// segments, roads with 3 crashes and above as the crash prone"). Missing
// counts produce missing targets.
func (d *Dataset) CountThresholdTarget(countAttr string, threshold int, targetName string) (*Dataset, error) {
	j, err := d.AttrIndex(countAttr)
	if err != nil {
		return nil, err
	}
	col := make([]float64, d.n)
	for i, v := range d.cols[j] {
		switch {
		case IsMissing(v):
			col[i] = Missing
		case v > float64(threshold):
			col[i] = 1
		default:
			col[i] = 0
		}
	}
	return d.AppendColumn(Attribute{Name: targetName, Kind: Binary}, col)
}

// ClassCounts returns (negatives, positives) of a binary column, ignoring
// missing targets.
func (d *Dataset) ClassCounts(target int) (neg, pos int) {
	for _, v := range d.cols[target] {
		switch v {
		case 0:
			neg++
		case 1:
			pos++
		}
	}
	return neg, pos
}

// Bootstrap returns a resample of size n with replacement.
func (d *Dataset) Bootstrap(r *rng.Source, n int) *Dataset {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(d.n)
	}
	return d.Subset(d.name+"/boot", idx)
}
