package roadnet

import (
	"fmt"
	"io"
	"math"
	"sort"

	"roadcrash/internal/data"
	"roadcrash/internal/rng"
)

// Weather selects the wet/dry regime of a scenario stream.
type Weather int

const (
	// WeatherMixed draws each row's wet flag from the segment's wet
	// exposure and skid resistance, as the study extraction does.
	WeatherMixed Weather = iota
	// WeatherWet marks every row as a wet-weather observation — the
	// workload that stresses the skid-resistance interaction.
	WeatherWet
	// WeatherDry marks every row as a dry observation.
	WeatherDry
)

// String returns the regime name.
func (w Weather) String() string {
	switch w {
	case WeatherMixed:
		return "mixed"
	case WeatherWet:
		return "wet"
	case WeatherDry:
		return "dry"
	default:
		return fmt.Sprintf("Weather(%d)", int(w))
	}
}

// WeatherFromString parses a regime name (the -weather CLI values).
func WeatherFromString(s string) (Weather, error) {
	switch s {
	case "mixed":
		return WeatherMixed, nil
	case "wet":
		return WeatherWet, nil
	case "dry":
		return WeatherDry, nil
	}
	return 0, fmt.Errorf("roadnet: unknown weather regime %q (want mixed, wet or dry)", s)
}

// ScenarioOptions shapes a synthetic segment-year stream. The zero value
// is not valid; start from DefaultScenarioOptions.
type ScenarioOptions struct {
	// Rows is the total number of segment-year rows to emit.
	Rows int
	// ChunkSize is the batch capacity (<= 0 selects data.DefaultChunkSize).
	ChunkSize int
	// Years is the per-segment observation window; each synthetic segment
	// emits one row per year, so Rows/Years distinct segments are drawn.
	Years int
	// FirstYear is the calendar year of the first observation year.
	FirstYear int
	// Seed makes the stream deterministic: same options, same rows.
	Seed uint64
	// Weather selects the wet/dry regime of the emitted rows.
	Weather Weather
	// MissingRates injects per-segment missing values by attribute name;
	// nil selects the study defaults, an empty map disables injection.
	MissingRates map[string]float64
	// SurveyJitter scales per-year measurement drift (seal age advances,
	// skid resistance decays, traffic grows); 0 disables it.
	SurveyJitter float64
	// AADTGrowth adds extra per-year traffic growth on top of the survey
	// drift — a demand-drift scenario (0.03 means +3%/year).
	AADTGrowth float64
	// DriftAfterRow is the emitted-row index at which concept drift sets
	// in: segments drawn from that row on have DriftRiskShift added to
	// their underlying risk score before the crash-counting process runs.
	// The observable features are untouched — only the label distribution
	// moves, which is exactly the failure a deployed model cannot see in
	// its inputs. Ignored when DriftRiskShift is 0.
	DriftAfterRow int
	// DriftRiskShift is the additive log-scale risk shift applied once
	// drift sets in (crash rates scale by roughly e^shift).
	DriftRiskShift float64
}

// DefaultScenarioOptions returns a calibrated mixed-weather stream of n
// rows in chunks of data.DefaultChunkSize.
func DefaultScenarioOptions(n int) ScenarioOptions {
	return ScenarioOptions{
		Rows:         n,
		Years:        4,
		FirstYear:    2004,
		Seed:         20110322,
		SurveyJitter: 1,
	}
}

// ScenarioStream generates synthetic segment-year rows in the study
// schema, on the fly and in constant memory — the load generator for the
// out-of-core scoring pipeline. It implements data.BatchReader: segments
// are drawn with the network generator's attribute model, each emits one
// row per observation year with survey drift, missing-data injection and
// the configured wet/dry regime applied, and rows land in one reused
// batch. Streaming a million rows allocates what one chunk needs.
type ScenarioStream struct {
	opt       ScenarioOptions
	attrs     []data.Attribute
	batch     *data.Batch
	row       []float64
	rateAttrs []string

	attrRng  *rng.Source
	countRng *rng.Source
	missRng  *rng.Source
	wetRng   *rng.Source
	srvRng   *rng.Source

	emitted int
	nextID  int
	// current segment state, reused across segments so the steady-state
	// loop is allocation-free (the constant-memory benchmark pins this).
	base    []float64
	miss    map[string]bool
	pWet    float64
	crashes float64
	year    int
}

// NewScenarioStream validates the options and prepares the stream.
func NewScenarioStream(opt ScenarioOptions) (*ScenarioStream, error) {
	if opt.Rows <= 0 {
		return nil, fmt.Errorf("roadnet: scenario Rows must be positive, got %d", opt.Rows)
	}
	if opt.Years <= 0 {
		return nil, fmt.Errorf("roadnet: scenario Years must be positive, got %d", opt.Years)
	}
	switch opt.Weather {
	case WeatherMixed, WeatherWet, WeatherDry:
	default:
		return nil, fmt.Errorf("roadnet: invalid weather regime %d", int(opt.Weather))
	}
	rates := opt.MissingRates
	if rates == nil {
		rates = defaultMissingRates()
		opt.MissingRates = rates
	}
	rateAttrs := make([]string, 0, len(rates))
	for attr := range rates {
		rateAttrs = append(rateAttrs, attr)
	}
	sort.Strings(rateAttrs)

	attrs := StudyAttrs()
	master := rng.New(opt.Seed)
	s := &ScenarioStream{
		opt:       opt,
		attrs:     attrs,
		batch:     data.NewBatch(attrs, opt.ChunkSize),
		row:       make([]float64, len(attrs)),
		rateAttrs: rateAttrs,
		attrRng:   master.Split(),
		countRng:  master.Split(),
		missRng:   master.Split(),
		wetRng:    master.Split(),
		srvRng:    master.Split(),
		base:      make([]float64, 0, len(attrs)),
		miss:      make(map[string]bool, len(rateAttrs)),
		year:      opt.Years, // force a fresh segment on the first row
	}
	return s, nil
}

// Attrs returns the study row schema the stream emits.
func (s *ScenarioStream) Attrs() []data.Attribute { return s.attrs }

// Next fills the stream's batch with up to its chunk size of rows.
func (s *ScenarioStream) Next() (*data.Batch, error) {
	if s.emitted >= s.opt.Rows {
		return nil, io.EOF
	}
	b := s.batch
	b.Reset()
	capacity := s.opt.ChunkSize
	if capacity <= 0 {
		capacity = data.DefaultChunkSize
	}
	for b.Len() < capacity && s.emitted < s.opt.Rows {
		if s.year >= s.opt.Years {
			s.nextSegment()
		}
		s.emitRow()
		b.AppendRow(s.row)
		s.year++
		s.emitted++
	}
	return b, nil
}

// nextSegment draws a fresh synthetic segment and its 4-year crash count
// via the network generator's counting process (risk score, structural
// hurdle, saturated negative binomial).
func (s *ScenarioStream) nextSegment() {
	cfg := DefaultConfig()
	seg := genAttributes(s.attrRng, s.nextID)
	seg.Risk = riskScore(&seg, cfg, s.countRng)
	if s.opt.DriftRiskShift != 0 && s.emitted >= s.opt.DriftAfterRow {
		seg.Risk += s.opt.DriftRiskShift
	}
	pSafe := 1 / (1 + math.Exp((seg.Risk-cfg.HurdleMid)/cfg.HurdleScale))
	if s.countRng.Float64() >= pSafe {
		eff := seg.Risk
		if eff > 1.3 {
			eff = 1.3 + 0.45*(eff-1.3) + s.countRng.Normal(0, 0.75)
		}
		lambda := math.Exp(eff)
		if lambda > 110 {
			lambda = 110
		}
		seg.Crashes = s.countRng.ZeroAltered(0, func() int {
			return s.countRng.NegBinomial(lambda, cfg.Dispersion)
		})
	}
	clear(s.miss)
	for _, attr := range s.rateAttrs {
		if s.missRng.Bool(s.opt.MissingRates[attr]) {
			s.miss[attr] = true
		}
	}
	s.base = appendSegmentValues(s.base[:0], &seg, s.miss)
	s.pWet = seg.WetExposure * (1 + 2.5*math.Max(0, 0.55-seg.F60))
	if s.pWet > 0.9 {
		s.pWet = 0.9
	}
	switch s.opt.Weather {
	case WeatherWet:
		s.pWet = 1
	case WeatherDry:
		s.pWet = 0
	}
	s.nextID++
	s.year = 0
	// Stash the crash count past the shared segment values; emitRow reads
	// it back so every year row carries the segment's 4-year count.
	s.crashes = float64(seg.Crashes)
}

// emitRow assembles the current segment's row for the current year into
// s.row: shared values, survey drift for the year, the wet flag, and the
// asset-register quantization.
func (s *ScenarioStream) emitRow() {
	copy(s.row, s.base)
	wet := 0.0
	if s.wetRng.Bool(s.pWet) {
		wet = 1
	}
	s.row[len(s.base)] = float64(s.opt.FirstYear + s.year)
	s.row[len(s.base)+1] = wet
	s.row[len(s.base)+2] = s.crashes
	applySurveyJitter(s.srvRng, s.row, float64(s.year), s.opt.SurveyJitter)
	if s.opt.AADTGrowth != 0 && !data.IsMissing(s.row[1]) {
		s.row[1] *= math.Pow(1+s.opt.AADTGrowth, float64(s.year))
	}
	quantizeRecord(s.row)
}
