package roadnet

import (
	"fmt"
	"math"
	"sort"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

// Attribute names shared by the derived datasets. CrashCountAttr is the
// measure the paper's data-preparation stage added ("road segment crash
// counts were calculated and provided the required measure").
const (
	AttrAADT       = "aadt"
	AttrLanes      = "lanes"
	AttrSpeedLimit = "speed_limit"
	AttrSealWidth  = "seal_width"
	AttrSurface    = "surface"
	AttrSealAge    = "seal_age"
	AttrF60        = "f60"
	AttrTexture    = "texture_depth"
	AttrRoughness  = "roughness"
	AttrRutting    = "rutting"
	AttrDeflection = "deflection"
	AttrCurvature  = "curvature"
	AttrGradient   = "gradient"
	AttrWetExpo    = "wet_exposure"
	AttrXKm        = "x_km"
	AttrYKm        = "y_km"
	AttrSegmentID  = "segment_id"
	AttrYear       = "crash_year"
	AttrWetCrash   = "wet_crash"
	CrashCountAttr = "crash_count"
)

// RoadAttrNames lists the modeling attributes shared by crash and no-crash
// instances (the paper's phase 1 variable list). Bookkeeping columns
// (segment id) and crash-specific columns (year, wet flag) are excluded.
func RoadAttrNames() []string {
	return []string{
		AttrAADT, AttrLanes, AttrSpeedLimit, AttrSealWidth, AttrSurface,
		AttrSealAge, AttrF60, AttrTexture, AttrRoughness, AttrRutting,
		AttrDeflection, AttrCurvature, AttrGradient, AttrWetExpo,
	}
}

// StudyOptions shapes the extraction of the paper's study datasets from a
// network.
type StudyOptions struct {
	// TargetCrashInstances caps the crash instance count; 0 keeps all.
	// The paper's final crash set held 16,750 instances.
	TargetCrashInstances int
	// TargetNoCrashInstances caps the zero-altered counting set; 0 keeps
	// all. The paper used 16,155 no-crash instances.
	TargetNoCrashInstances int
	// MissingRates injects per-segment missing values into distress
	// attributes before instances are expanded (nil for defaults).
	MissingRates map[string]float64
	// SurveyJitter scales the per-instance measurement variation. Road
	// condition attributes are surveyed annually, so two crashes on the
	// same segment in different years join different survey values: seal
	// age advances, skid resistance decays, traffic grows, and every
	// sensor reading carries measurement noise. 1 is the calibrated
	// default; 0 disables jitter (each segment becomes a point mass of
	// identical instances, which lets trees memorize individual high-crash
	// segments — the ablation bench demonstrates this failure mode).
	SurveyJitter float64
	// RawMeasurements skips the asset-register banding: by default every
	// recorded value is rounded to realistic register precision (AADT in
	// ~8% bands, skid resistance to 0.01, curvature to 5 deg/km bands and
	// so on), which — like the jitter — prevents learners from using
	// full-precision floats as segment fingerprints.
	RawMeasurements bool
	// Seed controls sampling, missing-value injection and survey jitter.
	Seed uint64
}

// DefaultStudyOptions matches the paper's dataset sizes.
func DefaultStudyOptions() StudyOptions {
	return StudyOptions{
		TargetCrashInstances:   16750,
		TargetNoCrashInstances: 16155,
		SurveyJitter:           1,
		Seed:                   41343, // QUT eprint id of the paper
	}
}

func defaultMissingRates() map[string]float64 {
	return map[string]float64{
		AttrTexture:    0.05,
		AttrRoughness:  0.03,
		AttrRutting:    0.03,
		AttrDeflection: 0.08,
	}
}

// StudyAttrs returns the study row schema — the attribute layout of every
// dataset and stream this package produces. Streaming consumers use it as
// the NDJSON feed schema so bookkeeping columns (segment id, crash year,
// wet flag) and the planar coordinates (x_km, y_km — the hotspot grid's
// inputs) are accepted alongside the modeling attributes.
func StudyAttrs() []data.Attribute {
	return newSchema("study").Build().Attrs()
}

func newSchema(name string) *data.Builder {
	return data.NewBuilder(name).
		Interval(AttrSegmentID).
		Interval(AttrAADT).
		Interval(AttrLanes).
		Interval(AttrSpeedLimit).
		Interval(AttrSealWidth).
		Nominal(AttrSurface, surfaceNames...).
		Interval(AttrSealAge).
		Interval(AttrF60).
		Interval(AttrTexture).
		Interval(AttrRoughness).
		Interval(AttrRutting).
		Interval(AttrDeflection).
		Interval(AttrCurvature).
		Interval(AttrGradient).
		Interval(AttrWetExpo).
		Interval(AttrXKm).
		Interval(AttrYKm).
		Interval(AttrYear).
		Binary(AttrWetCrash).
		Interval(CrashCountAttr)
}

// segmentValues assembles the shared per-segment attribute values with
// missing-value injection applied.
func segmentValues(s *Segment, miss map[string]bool) []float64 {
	return appendSegmentValues(nil, s, miss)
}

// appendSegmentValues is segmentValues into a caller-owned buffer, so the
// scenario streamer's per-segment refresh does not allocate.
func appendSegmentValues(dst []float64, s *Segment, miss map[string]bool) []float64 {
	v := append(dst,
		float64(s.ID),
		s.AADT,
		float64(s.Lanes),
		s.SpeedLimit,
		s.SealWidth,
		float64(s.Surface),
		s.SealAge,
		s.F60,
		s.TextureMM,
		s.RoughnessM,
		s.RuttingMM,
		s.Deflection,
		s.CurveDeg,
		s.GradientPct,
		s.WetExposure,
		s.XKm,
		s.YKm,
	)
	base := len(dst)
	if miss[AttrTexture] {
		v[base+8] = data.Missing
	}
	if miss[AttrRoughness] {
		v[base+9] = data.Missing
	}
	if miss[AttrRutting] {
		v[base+10] = data.Missing
	}
	if miss[AttrDeflection] {
		v[base+11] = data.Missing
	}
	return v
}

// applySurveyJitter perturbs the per-segment values for one instance as if
// the road attributes came from the survey nearest the crash year. yearIdx
// is the 0-based observation year (use the window midpoint for no-crash
// instances). Indices follow segmentValues' layout; coordinates (indices
// 15, 16) are surveyed once and stay fixed. Missing values stay missing.
func applySurveyJitter(r *rng.Source, v []float64, yearIdx, scale float64) {
	if scale <= 0 {
		return
	}
	dy := yearIdx - 1.5 // offset from the window midpoint
	jitter := func(idx int, delta float64, lo, hi float64) {
		if data.IsMissing(v[idx]) {
			return
		}
		x := v[idx] + delta
		if x < lo {
			x = lo
		}
		if x > hi {
			x = hi
		}
		v[idx] = x
	}
	// AADT grows ~2%/year with counting noise (multiplicative).
	if !data.IsMissing(v[1]) {
		v[1] *= math.Pow(1.02, dy) * math.Exp(r.Normal(0, 0.06*scale))
	}
	jitter(4, r.Normal(0, 0.15*scale), 3, 18)                 // seal width re-measured
	jitter(6, dy+r.Normal(0, 0.3*scale), 0, 40)               // seal age advances
	jitter(7, -0.008*dy+r.Normal(0, 0.012*scale), 0.15, 0.85) // F60 decays
	jitter(8, r.Normal(0, 0.06*scale), 0.1, 2.0)              // texture
	jitter(9, 0.03*dy+r.Normal(0, 0.18*scale), 0.5, 8)        // roughness grows
	jitter(10, 0.2*dy+r.Normal(0, 0.9*scale), 0, 30)          // rutting grows
	jitter(11, r.Normal(0, 0.07*scale), 0.1, 2.5)             // deflection
	jitter(12, r.Normal(0, 2.5*scale), 0, 250)                // curvature survey noise
	jitter(13, r.Normal(0, 0.3*scale), 0, 14)                 // gradient survey noise
	jitter(14, r.Normal(0, 0.02*scale), 0.01, 0.95)           // wet exposure varies by year
}

// quantizeRecord rounds the instance values to asset-register precision.
// Indices follow segmentValues' layout; missing values stay missing.
func quantizeRecord(v []float64) {
	round := func(idx int, step float64) {
		if !data.IsMissing(v[idx]) {
			v[idx] = math.Round(v[idx]/step) * step
		}
	}
	if !data.IsMissing(v[1]) && v[1] > 0 {
		v[1] = math.Exp(math.Round(math.Log(v[1])/0.08) * 0.08) // ~8% AADT bands
		v[1] = math.Round(v[1])
	}
	round(4, 0.5)   // seal width to 0.5 m
	round(6, 1)     // seal age in whole years
	round(7, 0.02)  // F60 to 0.02
	round(8, 0.05)  // texture depth to 0.05 mm
	round(9, 0.2)   // roughness to 0.2 IRI
	round(10, 1)    // rutting to 1 mm
	round(11, 0.1)  // deflection to 0.1 mm
	round(12, 5)    // curvature in 5 deg/km bands
	round(13, 0.5)  // gradient to 0.5%
	round(14, 0.02) // wet exposure to 2% bands
}

// Study holds the two datasets the paper models: the crash-only instance
// set (phase 2) and the zero-altered no-crash counting set used to form
// the crash/no-crash dataset (phase 1).
type Study struct {
	// Crash has one instance per crash on an F60-surveyed segment,
	// carrying the segment's road attributes and its 4-year crash count.
	Crash *data.Dataset
	// NoCrash has one instance per F60-surveyed zero-crash segment
	// (crash_count = 0, crash-specific columns missing).
	NoCrash *data.Dataset
}

// ExtractStudy derives the study datasets from a network following the
// paper's data-preparation stage: keep F60-surveyed segments, expand one
// instance per crash, synthesize the zero-altered counting set from
// no-crash segments, and cap both to the study sizes.
func ExtractStudy(net *Network, opt StudyOptions) (*Study, error) {
	if net == nil || len(net.Segments) == 0 {
		return nil, fmt.Errorf("roadnet: empty network")
	}
	rates := opt.MissingRates
	if rates == nil {
		rates = defaultMissingRates()
	}
	// Draw missing-value injections in a fixed attribute order; ranging
	// over the map directly would consume the RNG in a different order on
	// every run.
	rateAttrs := make([]string, 0, len(rates))
	for attr := range rates {
		rateAttrs = append(rateAttrs, attr)
	}
	sort.Strings(rateAttrs)
	master := rng.New(opt.Seed)
	missRng := master.Split()
	sampleRng := master.Split()
	wetRng := master.Split()
	surveyRng := master.Split()

	crashB := newSchema("crash-only")
	noCrashB := newSchema("no-crash")
	crashCount, noCrashCount := 0, 0

	for i := range net.Segments {
		s := &net.Segments[i]
		if !s.HasF60 {
			continue
		}
		miss := make(map[string]bool, len(rates))
		for _, attr := range rateAttrs {
			if missRng.Bool(rates[attr]) {
				miss[attr] = true
			}
		}
		base := segmentValues(s, miss)
		if s.Crashes == 0 {
			row := append(append([]float64(nil), base...), data.Missing, data.Missing, 0)
			applySurveyJitter(surveyRng, row, 1.5, opt.SurveyJitter)
			if !opt.RawMeasurements {
				quantizeRecord(row)
			}
			noCrashB.Row(row...)
			noCrashCount++
			continue
		}
		// Wet-crash probability rises when skid resistance is poor.
		pWet := s.WetExposure * (1 + 2.5*math.Max(0, 0.55-s.F60))
		if pWet > 0.9 {
			pWet = 0.9
		}
		for year, count := range s.YearCounts {
			for c := 0; c < count; c++ {
				wet := 0.0
				if wetRng.Bool(pWet) {
					wet = 1
				}
				row := append(append([]float64(nil), base...),
					float64(net.Config.FirstYear+year), wet, float64(s.Crashes))
				applySurveyJitter(surveyRng, row, float64(year), opt.SurveyJitter)
				if !opt.RawMeasurements {
					quantizeRecord(row)
				}
				crashB.Row(row...)
				crashCount++
			}
		}
	}
	if crashCount == 0 {
		return nil, fmt.Errorf("roadnet: network produced no usable crash instances")
	}
	st := &Study{Crash: crashB.Build(), NoCrash: noCrashB.Build()}
	if opt.TargetCrashInstances > 0 && st.Crash.Len() > opt.TargetCrashInstances {
		st.Crash = sampleDown(sampleRng, st.Crash, opt.TargetCrashInstances)
	}
	if opt.TargetNoCrashInstances > 0 && st.NoCrash.Len() > opt.TargetNoCrashInstances {
		st.NoCrash = sampleDown(sampleRng, st.NoCrash, opt.TargetNoCrashInstances)
	}
	return st, nil
}

func sampleDown(r *rng.Source, d *data.Dataset, n int) *data.Dataset {
	idx := r.Perm(d.Len())[:n]
	return d.Subset(d.Name(), idx)
}

// AnnualCountHistogram returns, for each observation year, a histogram of
// per-segment annual crash counts across F60-surveyed crash segments:
// hist[year][k] = number of segments recording exactly k crashes in that
// year (k >= 1). This regenerates Figure 1.
func (n *Network) AnnualCountHistogram() [][]int {
	maxCount := 0
	for i := range n.Segments {
		for _, c := range n.Segments[i].YearCounts {
			if c > maxCount {
				maxCount = c
			}
		}
	}
	hist := make([][]int, n.Config.Years)
	for y := range hist {
		hist[y] = make([]int, maxCount+1)
	}
	for i := range n.Segments {
		s := &n.Segments[i]
		if !s.HasF60 || s.Crashes == 0 {
			continue
		}
		for y, c := range s.YearCounts {
			if c > 0 {
				hist[y][c]++
			}
		}
	}
	return hist
}
