package roadnet

import (
	"math"
	"testing"

	"roadcrash/internal/data"
)

// studyFixture caches the default-config study because generation is the
// expensive step shared by many tests.
var studyFixture *Study

func defaultStudy(t *testing.T) *Study {
	t.Helper()
	if studyFixture != nil {
		return studyFixture
	}
	net, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := ExtractStudy(net, DefaultStudyOptions())
	if err != nil {
		t.Fatal(err)
	}
	studyFixture = st
	return st
}

func TestStudySizesMatchPaper(t *testing.T) {
	st := defaultStudy(t)
	if st.Crash.Len() != 16750 {
		t.Errorf("crash instances = %d, paper has 16750", st.Crash.Len())
	}
	if st.NoCrash.Len() != 16155 {
		t.Errorf("no-crash instances = %d, paper has 16155", st.NoCrash.Len())
	}
}

// TestTable1Shape asserts the cumulative instance-count marginals stay
// within a few points of the paper's Table 1 (the generator is calibrated
// against exactly these numbers).
func TestTable1Shape(t *testing.T) {
	st := defaultStudy(t)
	counts, err := st.Crash.ColByName(CrashCountAttr)
	if err != nil {
		t.Fatal(err)
	}
	paperNonProne := map[int]float64{2: 3548, 4: 5904, 8: 8677, 16: 12348, 32: 15471, 64: 16576}
	for _, th := range []int{2, 4, 8, 16, 32, 64} {
		le := 0
		for _, c := range counts {
			if int(c) <= th {
				le++
			}
		}
		got := float64(le) / float64(len(counts))
		want := paperNonProne[th] / 16750
		if math.Abs(got-want) > 0.08 {
			t.Errorf("threshold %d: non-prone fraction %.3f, paper %.3f (tolerance 0.08)", th, got, want)
		}
	}
}

func TestCrashInstancesConsistent(t *testing.T) {
	st := defaultStudy(t)
	countJ := st.Crash.MustAttrIndex(CrashCountAttr)
	yearJ := st.Crash.MustAttrIndex(AttrYear)
	f60J := st.Crash.MustAttrIndex(AttrF60)
	for i := 0; i < st.Crash.Len(); i++ {
		if c := st.Crash.At(i, countJ); c < 1 {
			t.Fatalf("crash instance %d has segment count %v < 1", i, c)
		}
		y := st.Crash.At(i, yearJ)
		if y < 2004 || y > 2007 {
			t.Fatalf("crash instance %d has year %v", i, y)
		}
		if data.IsMissing(st.Crash.At(i, f60J)) {
			t.Fatalf("crash instance %d missing F60; study filters on F60", i)
		}
	}
}

func TestNoCrashInstancesConsistent(t *testing.T) {
	st := defaultStudy(t)
	countJ := st.NoCrash.MustAttrIndex(CrashCountAttr)
	yearJ := st.NoCrash.MustAttrIndex(AttrYear)
	wetJ := st.NoCrash.MustAttrIndex(AttrWetCrash)
	for i := 0; i < st.NoCrash.Len(); i++ {
		if c := st.NoCrash.At(i, countJ); c != 0 {
			t.Fatalf("no-crash instance %d has count %v", i, c)
		}
		if !data.IsMissing(st.NoCrash.At(i, yearJ)) || !data.IsMissing(st.NoCrash.At(i, wetJ)) {
			t.Fatalf("no-crash instance %d has crash-specific attributes", i)
		}
	}
}

func TestSchemasMatchAndCombine(t *testing.T) {
	st := defaultStudy(t)
	combined, err := st.Crash.Concat("crash+no-crash", st.NoCrash)
	if err != nil {
		t.Fatal(err)
	}
	if combined.Len() != st.Crash.Len()+st.NoCrash.Len() {
		t.Fatalf("combined len = %d", combined.Len())
	}
	// The paper's phase 1 set: 16750 + 16155 = 32905 instances.
	if combined.Len() != 32905 {
		t.Errorf("combined len = %d, paper has 32905", combined.Len())
	}
}

func TestRoadAttrNamesResolve(t *testing.T) {
	st := defaultStudy(t)
	for _, name := range RoadAttrNames() {
		if _, err := st.Crash.AttrIndex(name); err != nil {
			t.Errorf("crash dataset: %v", err)
		}
		if _, err := st.NoCrash.AttrIndex(name); err != nil {
			t.Errorf("no-crash dataset: %v", err)
		}
	}
}

func TestMissingInjection(t *testing.T) {
	st := defaultStudy(t)
	for _, attr := range []string{AttrTexture, AttrRoughness, AttrRutting, AttrDeflection} {
		j := st.Crash.MustAttrIndex(attr)
		miss := st.Crash.MissingCount(j)
		frac := float64(miss) / float64(st.Crash.Len())
		if frac == 0 || frac > 0.2 {
			t.Errorf("%s missing fraction = %.3f, want (0, 0.2]", attr, frac)
		}
	}
}

func TestExtractStudyOptions(t *testing.T) {
	cfg := smallConfig()
	net, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Uncapped extraction keeps everything.
	st, err := ExtractStudy(net, StudyOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Capped extraction is a strict subset.
	st2, err := ExtractStudy(net, StudyOptions{Seed: 1, TargetCrashInstances: 100, TargetNoCrashInstances: 50})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Crash.Len() != 100 || st2.NoCrash.Len() != 50 {
		t.Fatalf("capped sizes %d/%d", st2.Crash.Len(), st2.NoCrash.Len())
	}
	if st2.Crash.Len() > st.Crash.Len() {
		t.Fatal("capped set larger than uncapped")
	}
}

func TestExtractStudyErrors(t *testing.T) {
	if _, err := ExtractStudy(nil, DefaultStudyOptions()); err == nil {
		t.Error("nil network should error")
	}
	if _, err := ExtractStudy(&Network{}, DefaultStudyOptions()); err == nil {
		t.Error("empty network should error")
	}
}

func TestAnnualCountHistogram(t *testing.T) {
	net, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hist := net.AnnualCountHistogram()
	if len(hist) != 4 {
		t.Fatalf("years = %d", len(hist))
	}
	for y, h := range hist {
		if len(h) < 2 {
			t.Fatalf("year %d histogram too small", y)
		}
		if h[0] != 0 {
			t.Fatalf("year %d histogram counts zero-crash segments", y)
		}
		// Figure 1 shape: exponential drop — count at 1 far exceeds count
		// at 5, which exceeds count at 15.
		if !(h[1] > 3*at(h, 5) && at(h, 5) > at(h, 15)) {
			t.Fatalf("year %d histogram not decreasing: h[1]=%d h[5]=%d h[15]=%d", y, h[1], at(h, 5), at(h, 15))
		}
	}
}

func at(h []int, i int) int {
	if i < len(h) {
		return h[i]
	}
	return 0
}

// TestFigure1Magnitude checks the headline magnitudes of Figure 1: the
// single-crash bar of each year holds on the order of a thousand segments.
func TestFigure1Magnitude(t *testing.T) {
	net, err := Generate(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	hist := net.AnnualCountHistogram()
	for y, h := range hist {
		if h[1] < 700 || h[1] > 3000 {
			t.Errorf("year %d: single-crash segments = %d, want O(1000) as in Figure 1", y, h[1])
		}
	}
}
