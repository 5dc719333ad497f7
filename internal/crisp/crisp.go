// Package crisp provides the lightweight CRISP-DM process scaffolding the
// study was run under ("To conform to industry-standard processes, the
// CRISP-DM framework was used to guide the study"). A Pipeline runs named
// steps grouped into the six canonical phases, records findings, and
// renders a process report.
package crisp

import (
	"fmt"
	"strings"
	"time"
)

// Phase names the six CRISP-DM phases.
type Phase int

const (
	// BusinessUnderstanding sets the objectives and success criteria.
	BusinessUnderstanding Phase = iota
	// DataUnderstanding collects and explores the source data.
	DataUnderstanding
	// DataPreparation builds the modeling datasets from the sources.
	DataPreparation
	// Modeling selects and fits the models.
	Modeling
	// Evaluation assesses the models against the objectives.
	Evaluation
	// Deployment delivers the results, such as a report or model artifacts.
	Deployment
)

var phaseNames = [...]string{
	"business understanding",
	"data understanding",
	"data preparation",
	"modeling",
	"evaluation",
	"deployment",
}

// String returns the phase name.
func (p Phase) String() string {
	if p < 0 || int(p) >= len(phaseNames) {
		return fmt.Sprintf("Phase(%d)", int(p))
	}
	return phaseNames[p]
}

// Step is a unit of work inside a phase. It returns a human-readable
// finding (recorded in the report) or an error (which aborts the run).
type Step struct {
	Name string
	Run  func(log *Log) (string, error)
}

// Log collects notes emitted by steps.
type Log struct {
	notes []string
}

// Notef records a formatted note.
func (l *Log) Notef(format string, args ...interface{}) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// Notes returns the notes recorded so far.
func (l *Log) Notes() []string { return l.notes }

// Pipeline is an ordered set of phases with steps.
type Pipeline struct {
	name   string
	phases map[Phase][]Step
	order  []Phase
	report []stepReport
}

type stepReport struct {
	phase   Phase
	step    string
	finding string
	notes   []string
	elapsed time.Duration
}

// New creates a pipeline.
func New(name string) *Pipeline {
	return &Pipeline{name: name, phases: make(map[Phase][]Step)}
}

// Add appends a step to a phase. Phases execute in canonical CRISP-DM
// order regardless of insertion order.
func (p *Pipeline) Add(phase Phase, step Step) *Pipeline {
	if _, seen := p.phases[phase]; !seen {
		p.order = append(p.order, phase)
	}
	p.phases[phase] = append(p.phases[phase], step)
	return p
}

// Run executes all steps in canonical phase order. The first error aborts
// and is returned wrapped with its phase and step.
func (p *Pipeline) Run() error {
	p.report = p.report[:0]
	for ph := BusinessUnderstanding; ph <= Deployment; ph++ {
		for _, step := range p.phases[ph] {
			log := &Log{}
			start := time.Now()
			finding, err := step.Run(log)
			elapsed := time.Since(start)
			if err != nil {
				return fmt.Errorf("crisp: phase %q step %q: %w", ph, step.Name, err)
			}
			p.report = append(p.report, stepReport{
				phase: ph, step: step.Name, finding: finding,
				notes: log.Notes(), elapsed: elapsed,
			})
		}
	}
	return nil
}

// Report renders the process log after Run.
func (p *Pipeline) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CRISP-DM pipeline %q\n", p.name)
	current := Phase(-1)
	for _, r := range p.report {
		if r.phase != current {
			current = r.phase
			fmt.Fprintf(&b, "\n[%s]\n", current)
		}
		fmt.Fprintf(&b, "  %s (%.2fs): %s\n", r.step, r.elapsed.Seconds(), r.finding)
		for _, n := range r.notes {
			fmt.Fprintf(&b, "    - %s\n", n)
		}
	}
	return b.String()
}
