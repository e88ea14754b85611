// Package cvedb models the CVE (Common Vulnerabilities and Exposures)
// database slice the paper trains on: vulnerability records with CVSS
// vectors and CWE classifications, per-application histories, and the
// "converging history" selection rule (applications with at least five years
// between their oldest and newest report).
package cvedb

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cvss"
	"repro/internal/cwe"
	"repro/internal/lang"
)

// Record is a single CVE entry.
type Record struct {
	ID        string    `json:"id"`  // "CVE-2016-5195"
	App       string    `json:"app"` // owning application name
	Published time.Time `json:"published"`
	CWE       cwe.ID    `json:"cwe"`
	// V3 is the CVSS v3.0 vector string; V2 the v2.0 vector string for
	// records predating v3 adoption. At least one is always present.
	V3          string  `json:"v3,omitempty"`
	V2          string  `json:"v2,omitempty"`
	Score       float64 `json:"score"` // base score of the preferred vector
	Description string  `json:"description,omitempty"`
}

// Vector3 parses the record's v3 vector, if present.
func (r Record) Vector3() (cvss.V3, bool) {
	if r.V3 == "" {
		return cvss.V3{}, false
	}
	v, err := cvss.ParseV3(r.V3)
	if err != nil {
		return cvss.V3{}, false
	}
	return v, true
}

// Severity returns the qualitative band of the record's score.
func (r Record) Severity() cvss.Severity {
	return cvss.SeverityOf(r.Score)
}

// NetworkAttackable reports whether the record's attack vector is Network
// (the paper's "AV = N?" hypothesis). Records with only a v2 vector use the
// v2 access vector.
func (r Record) NetworkAttackable() bool {
	if v, ok := r.Vector3(); ok {
		return v.AV == cvss.AVNetwork
	}
	if r.V2 != "" {
		if v, err := cvss.ParseV2(r.V2); err == nil {
			return v.AV == cvss.V2AVNetwork
		}
	}
	return false
}

// App is an application tracked in the database.
type App struct {
	Name     string        `json:"name"`
	Language lang.Language `json:"language"` // primary implementation language
	KLoC     float64       `json:"kloc"`     // thousands of lines of code
	// Cyclomatic is the whole-program cyclomatic complexity (Figure 3's
	// x-axis), as measured by the testbed or supplied by the corpus model.
	Cyclomatic float64 `json:"cyclomatic"`
}

// DB is an in-memory CVE database with per-application indexes.
type DB struct {
	apps    map[string]App
	records map[string][]Record // app name -> records, kept sorted by date
	total   int
}

// New returns an empty database.
func New() *DB {
	return &DB{
		apps:    map[string]App{},
		records: map[string][]Record{},
	}
}

// AddApp registers an application. Re-adding replaces the metadata but keeps
// existing records.
func (db *DB) AddApp(a App) error {
	if a.Name == "" {
		return fmt.Errorf("cvedb: app with empty name")
	}
	db.apps[a.Name] = a
	return nil
}

// AddRecord inserts a CVE record. The owning app must already be registered.
func (db *DB) AddRecord(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("cvedb: record with empty ID")
	}
	if _, ok := db.apps[r.App]; !ok {
		return fmt.Errorf("cvedb: record %s references unknown app %q", r.ID, r.App)
	}
	if r.V3 == "" && r.V2 == "" {
		return fmt.Errorf("cvedb: record %s has no CVSS vector", r.ID)
	}
	recs := db.records[r.App]
	i := sort.Search(len(recs), func(i int) bool { return recs[i].Published.After(r.Published) })
	recs = append(recs, Record{})
	copy(recs[i+1:], recs[i:])
	recs[i] = r
	db.records[r.App] = recs
	db.total++
	return nil
}

// Apps returns all registered applications, sorted by name.
func (db *DB) Apps() []App {
	out := make([]App, 0, len(db.apps))
	for _, a := range db.apps {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// App returns the application metadata by name.
func (db *DB) App(name string) (App, bool) {
	a, ok := db.apps[name]
	return a, ok
}

// Records returns the records of one application, sorted by publication date.
func (db *DB) Records(app string) []Record {
	return append([]Record(nil), db.records[app]...)
}

// NumRecords returns the total number of CVE records in the database.
func (db *DB) NumRecords() int { return db.total }

// NumApps returns the number of registered applications.
func (db *DB) NumApps() int { return len(db.apps) }

// HistorySpan returns the duration between the oldest and newest record of
// the application, or zero if it has fewer than two records.
func (db *DB) HistorySpan(app string) time.Duration {
	recs := db.records[app]
	if len(recs) < 2 {
		return 0
	}
	return recs[len(recs)-1].Published.Sub(recs[0].Published)
}

// FiveYears is the paper's converging-history threshold.
const FiveYears = 5 * 365 * 24 * time.Hour

// SelectEstablished returns the applications whose *oldest* CVE report is
// at least minAge before asOf, sorted by name. Figure 2 plots applications
// with a single vulnerability, so the paper's "5-year history" filter must
// admit single-report applications; this is the age-since-first-report
// reading used by the corpus.
func (db *DB) SelectEstablished(minAge time.Duration, asOf time.Time) []App {
	var out []App
	for name, a := range db.apps {
		recs := db.records[name]
		if len(recs) == 0 {
			continue
		}
		if asOf.Sub(recs[0].Published) >= minAge {
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stats summarizes one application's vulnerability history; these are the
// per-app quantities Figures 2 and 3 plot and the hypotheses label.
type Stats struct {
	App            App
	Count          int // total vulnerabilities (regardless of severity)
	HighSeverity   int // CVSS > 7
	NetworkVector  int // AV = N
	StackOverflow  int // CWE-121 (or descendant)
	MemorySafety   int // any memory-safety-class CWE
	MeanScore      float64
	MaxScore       float64
	FirstPublished time.Time
	LastPublished  time.Time
}

// StatsFor computes the per-application summary.
func (db *DB) StatsFor(app string) (Stats, error) {
	a, ok := db.apps[app]
	if !ok {
		return Stats{}, fmt.Errorf("cvedb: unknown app %q", app)
	}
	s := Stats{App: a}
	recs := db.records[app]
	s.Count = len(recs)
	if len(recs) == 0 {
		return s, nil
	}
	sum := 0.0
	for _, r := range recs {
		sum += r.Score
		if r.Score > s.MaxScore {
			s.MaxScore = r.Score
		}
		if r.Score > 7 {
			s.HighSeverity++
		}
		if r.NetworkAttackable() {
			s.NetworkVector++
		}
		if cwe.IsA(r.CWE, 121) {
			s.StackOverflow++
		}
		if e, ok := cwe.Lookup(r.CWE); ok && e.Class == cwe.ClassMemory {
			s.MemorySafety++
		}
	}
	s.MeanScore = sum / float64(len(recs))
	s.FirstPublished = recs[0].Published
	s.LastPublished = recs[len(recs)-1].Published
	return s, nil
}

// snapshot is the JSON wire format.
type snapshot struct {
	Apps    []App    `json:"apps"`
	Records []Record `json:"records"`
}

// Save writes the database as JSON.
func (db *DB) Save(w io.Writer) error {
	snap := snapshot{Apps: db.Apps()}
	for _, a := range snap.Apps {
		snap.Records = append(snap.Records, db.records[a.Name]...)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

// Load reads a JSON snapshot written by Save into a fresh database.
func Load(r io.Reader) (*DB, error) {
	var snap snapshot
	if err := json.NewDecoder(r).Decode(&snap); err != nil {
		return nil, fmt.Errorf("cvedb: decode: %w", err)
	}
	db := New()
	for _, a := range snap.Apps {
		if err := db.AddApp(a); err != nil {
			return nil, err
		}
	}
	for _, rec := range snap.Records {
		if err := db.AddRecord(rec); err != nil {
			return nil, err
		}
	}
	return db, nil
}
