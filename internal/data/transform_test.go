package data

import (
	"testing"
	"testing/quick"

	"roadcrash/internal/rng"
)

// bigSample builds an unbalanced binary dataset with n instances and the
// given positive count.
func bigSample(n, pos int) *Dataset {
	b := NewBuilder("big").Interval("x").Binary("y").Interval("count")
	for i := 0; i < n; i++ {
		y := 0.0
		count := float64(i % 3)
		if i < pos {
			y = 1
			count = float64(10 + i%20)
		}
		b.Row(float64(i), y, count)
	}
	return b.Build()
}

func TestStratifiedSplitPreservesMix(t *testing.T) {
	d := bigSample(1000, 50) // 5% positive
	target := d.MustAttrIndex("y")
	train, valid, err := d.StratifiedSplit(rng.New(3), 0.7, target)
	if err != nil {
		t.Fatal(err)
	}
	_, trainPos := train.ClassCounts(target)
	_, validPos := valid.ClassCounts(target)
	if trainPos != 35 || validPos != 15 {
		t.Fatalf("positives split %d/%d, want 35/15", trainPos, validPos)
	}
}

func TestStratifiedSplitKeepsTinyMinority(t *testing.T) {
	// 3 positives out of 400: both sides must still see a positive.
	d := bigSample(400, 3)
	target := d.MustAttrIndex("y")
	train, valid, err := d.StratifiedSplit(rng.New(4), 0.7, target)
	if err != nil {
		t.Fatal(err)
	}
	_, trainPos := train.ClassCounts(target)
	_, validPos := valid.ClassCounts(target)
	if trainPos == 0 || validPos == 0 {
		t.Fatalf("minority lost: train=%d valid=%d", trainPos, validPos)
	}
}

func TestStratifiedSplitErrors(t *testing.T) {
	d := bigSample(10, 5)
	if _, _, err := d.StratifiedSplit(rng.New(1), 0, 1); err == nil {
		t.Error("bad fraction should error")
	}
	if _, _, err := d.StratifiedSplit(rng.New(1), 0.5, 99); err == nil {
		t.Error("bad target index should error")
	}
}

func TestKFoldPartition(t *testing.T) {
	d := bigSample(103, 20)
	folds, err := d.KFold(rng.New(5), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 10 {
		t.Fatalf("folds = %d", len(folds))
	}
	validSeen := map[int]int{}
	for _, f := range folds {
		train, valid := f[0], f[1]
		if len(train)+len(valid) != 103 {
			t.Fatalf("fold sizes %d+%d != 103", len(train), len(valid))
		}
		inValid := map[int]bool{}
		for _, i := range valid {
			inValid[i] = true
			validSeen[i]++
		}
		for _, i := range train {
			if inValid[i] {
				t.Fatal("train and valid overlap")
			}
		}
	}
	if len(validSeen) != 103 {
		t.Fatalf("validation folds cover %d instances", len(validSeen))
	}
	for i, c := range validSeen {
		if c != 1 {
			t.Fatalf("instance %d appears in %d validation folds", i, c)
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	d := bigSample(5, 1)
	if _, err := d.KFold(rng.New(1), 1); err == nil {
		t.Error("k=1 should error")
	}
	if _, err := d.KFold(rng.New(1), 6); err == nil {
		t.Error("k>n should error")
	}
}

func TestUndersample(t *testing.T) {
	d := bigSample(1000, 100)
	target := d.MustAttrIndex("y")
	bal, err := d.Undersample(rng.New(6), target, 1)
	if err != nil {
		t.Fatal(err)
	}
	neg, pos := bal.ClassCounts(target)
	if pos != 100 || neg != 100 {
		t.Fatalf("balance = %d/%d", neg, pos)
	}
	bal2, err := d.Undersample(rng.New(6), target, 2)
	if err != nil {
		t.Fatal(err)
	}
	neg2, pos2 := bal2.ClassCounts(target)
	if pos2 != 100 || neg2 != 200 {
		t.Fatalf("ratio-2 balance = %d/%d", neg2, pos2)
	}
}

func TestUndersampleCapsAtMajority(t *testing.T) {
	d := bigSample(100, 45)
	target := d.MustAttrIndex("y")
	bal, err := d.Undersample(rng.New(7), target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Len() != 100 {
		t.Fatalf("capped undersample len = %d", bal.Len())
	}
}

func TestUndersampleErrors(t *testing.T) {
	d := bigSample(100, 0)
	target := d.MustAttrIndex("y")
	if _, err := d.Undersample(rng.New(1), target, 1); err == nil {
		t.Error("single-class undersample should error")
	}
	if _, err := d.Undersample(rng.New(1), target, 0.5); err == nil {
		t.Error("ratio<1 should error")
	}
	if _, err := d.Undersample(rng.New(1), 99, 1); err == nil {
		t.Error("bad target should error")
	}
}

func TestCountThresholdTarget(t *testing.T) {
	d := NewBuilder("counts").Interval("crashCount").
		Row(0).Row(2).Row(3).Row(8).Row(9).Row(Missing).Build()
	d2, err := d.CountThresholdTarget("crashCount", 2, "cp2")
	if err != nil {
		t.Fatal(err)
	}
	col, err := d2.ColByName("cp2")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 0, 1, 1, 1}
	for i, w := range want {
		if col[i] != w {
			t.Fatalf("cp2[%d] = %v, want %v", i, col[i], w)
		}
	}
	if !IsMissing(col[5]) {
		t.Fatal("missing count should produce missing target")
	}
	if _, err := d.CountThresholdTarget("ghost", 2, "x"); err == nil {
		t.Fatal("unknown count attr should error")
	}
}

// Property: for any threshold, the derived target classes partition the
// non-missing instances and the positive count is monotone non-increasing
// in the threshold — the mechanism behind Table 1.
func TestCountThresholdMonotone(t *testing.T) {
	d := bigSample(500, 120)
	f := func(t1raw, t2raw uint8) bool {
		t1 := int(t1raw % 30)
		t2 := t1 + int(t2raw%10) + 1
		d1, err1 := d.CountThresholdTarget("count", t1, "a")
		d2, err2 := d.CountThresholdTarget("count", t2, "b")
		if err1 != nil || err2 != nil {
			return false
		}
		_, pos1 := d1.ClassCounts(d1.MustAttrIndex("a"))
		_, pos2 := d2.ClassCounts(d2.MustAttrIndex("b"))
		neg1, _ := d1.ClassCounts(d1.MustAttrIndex("a"))
		return pos2 <= pos1 && neg1+pos1 == d.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrap(t *testing.T) {
	d := bigSample(50, 10)
	boot := d.Bootstrap(rng.New(8), 200)
	if boot.Len() != 200 {
		t.Fatalf("bootstrap len = %d", boot.Len())
	}
}

func TestClassCountsIgnoresMissing(t *testing.T) {
	d := NewBuilder("cc").Binary("y").Row(0).Row(1).Row(Missing).Build()
	neg, pos := d.ClassCounts(0)
	if neg != 1 || pos != 1 {
		t.Fatalf("counts = %d/%d", neg, pos)
	}
}
