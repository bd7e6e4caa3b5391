package audit

import (
	"encoding/json"
	"fmt"
	"io"
)

// Report is the auditor's final verdict: the configuration echo, every
// test result in a fixed order, and the failure findings (empty when
// green). Field order and integer-only statistics make the JSON
// byte-stable across runs and platforms.
type Report struct {
	Partitions int          `json:"partitions"`
	Leaves     uint64       `json:"leaves"`
	RoundSlots int          `json:"round_slots"`
	Accesses   uint64       `json:"accesses"`
	Pass       bool         `json:"pass"`
	Findings   []string     `json:"findings"`
	Tests      []TestResult `json:"tests"`
}

// Report evaluates the full suite and returns the verdict. It finalizes
// any in-flight flush round first. Call it once the fed run is complete;
// further feeding and a later re-Report are allowed (online use).
func (a *Auditor) Report() *Report {
	r := &Report{Findings: []string{}, Tests: []TestResult{}}
	if a == nil || !a.bound {
		return r
	}
	a.finishFlushRound()
	r.Partitions = a.parts
	r.Leaves = a.leaves
	r.RoundSlots = a.roundSlots
	r.Accesses = a.accesses
	r.Tests = a.evaluate()
	r.Pass = true
	for _, t := range r.Tests {
		if t.Status == statusFail {
			r.Pass = false
			f := fmt.Sprintf("%s[%s]: stat %dm > crit %dm (n=%d)", t.Name, t.Scope, t.StatMilli, t.CritMilli, t.N)
			if t.Detail != "" {
				f = fmt.Sprintf("%s[%s]: %s", t.Name, t.Scope, t.Detail)
			}
			r.Findings = append(r.Findings, f)
		}
	}
	if a.failed {
		r.Pass = false
		r.Findings = append(r.Findings, fmt.Sprintf("online check tripped at access %d: %s", a.failedAt, a.firstFailure))
	}
	return r
}

// WriteJSON writes the report as deterministic indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Worst returns the largest statistic (and its critical value) among the
// named test's evaluated scopes — the report's headline number for one
// test family. Skipped scopes are ignored.
func (r *Report) Worst(name string) (statMilli, critMilli uint64) {
	for _, t := range r.Tests {
		if t.Name != name || t.Status == statusSkip {
			continue
		}
		if t.StatMilli >= statMilli {
			statMilli, critMilli = t.StatMilli, t.CritMilli
		}
	}
	return statMilli, critMilli
}

// Violations sums the named test's violation counters across scopes.
func (r *Report) Violations(name string) uint64 {
	var v uint64
	for _, t := range r.Tests {
		if t.Name == name {
			v += t.Violations
		}
	}
	return v
}

// Suite is an ordered collection of named audit reports — one per audited
// configuration — serialized as the pinned AUDIT artifact.
type Suite struct {
	Sections []Section
}

// Section is one audited configuration.
type Section struct {
	Name   string  `json:"name"`
	Report *Report `json:"report"`
}

// Add appends one configuration's report; on a nil suite it does nothing.
func (s *Suite) Add(name string, r *Report) {
	if s != nil {
		s.Sections = append(s.Sections, Section{Name: name, Report: r})
	}
}

// Pass reports whether every section passed (an empty suite passes).
func (s *Suite) Pass() bool {
	for _, sec := range s.Sections {
		if !sec.Report.Pass {
			return false
		}
	}
	return true
}

// WriteJSON writes the suite as deterministic indented JSON.
func (s *Suite) WriteJSON(w io.Writer) error {
	sections := s.Sections
	if sections == nil {
		sections = []Section{}
	}
	out := struct {
		Pass     bool      `json:"pass"`
		Sections []Section `json:"sections"`
	}{s.Pass(), sections}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}
