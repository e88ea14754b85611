package cvedb

import (
	"sort"
	"time"

	"repro/internal/cvss"
	"repro/internal/cwe"
)

// Query is a composable record filter. Zero fields match everything.
type Query struct {
	// App restricts to one application ("" = all).
	App string
	// CWE restricts to records whose weakness is the given CWE or one of
	// its descendants (0 = all).
	CWE cwe.ID
	// Class restricts to a weakness class (cwe.ClassOther = all).
	Class cwe.Class
	// MinScore / MaxScore bound the CVSS base score (MaxScore 0 = no cap).
	MinScore, MaxScore float64
	// From / To bound the publication date (zero values = unbounded).
	From, To time.Time
	// NetworkOnly keeps only AV=N records.
	NetworkOnly bool
}

// matches reports whether r satisfies q.
func (q Query) matches(r Record) bool {
	if q.App != "" && r.App != q.App {
		return false
	}
	if q.CWE != 0 && !cwe.IsA(r.CWE, q.CWE) {
		return false
	}
	if q.Class != cwe.ClassOther {
		e, ok := cwe.Lookup(r.CWE)
		if !ok || e.Class != q.Class {
			return false
		}
	}
	if r.Score < q.MinScore {
		return false
	}
	if q.MaxScore > 0 && r.Score > q.MaxScore {
		return false
	}
	if !q.From.IsZero() && r.Published.Before(q.From) {
		return false
	}
	if !q.To.IsZero() && r.Published.After(q.To) {
		return false
	}
	if q.NetworkOnly && !r.NetworkAttackable() {
		return false
	}
	return true
}

// Select returns every record matching q, ordered by (app, date).
func (db *DB) Select(q Query) []Record {
	var out []Record
	apps := db.Apps()
	for _, a := range apps {
		if q.App != "" && a.Name != q.App {
			continue
		}
		for _, r := range db.records[a.Name] {
			if q.matches(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// Count returns the number of matching records without materializing them.
func (db *DB) Count(q Query) int {
	n := 0
	for name := range db.apps {
		if q.App != "" && name != q.App {
			continue
		}
		for _, r := range db.records[name] {
			if q.matches(r) {
				n++
			}
		}
	}
	return n
}

// SeverityHistogram buckets matching records by qualitative severity band.
func (db *DB) SeverityHistogram(q Query) map[cvss.Severity]int {
	out := map[cvss.Severity]int{}
	for name := range db.apps {
		if q.App != "" && name != q.App {
			continue
		}
		for _, r := range db.records[name] {
			if q.matches(r) {
				out[r.Severity()]++
			}
		}
	}
	return out
}

// YearHistogram buckets matching records by publication year, sorted.
type YearCount struct {
	Year  int
	Count int
}

// YearHistogram returns per-year counts for matching records.
func (db *DB) YearHistogram(q Query) []YearCount {
	counts := map[int]int{}
	for name := range db.apps {
		if q.App != "" && name != q.App {
			continue
		}
		for _, r := range db.records[name] {
			if q.matches(r) {
				counts[r.Published.Year()]++
			}
		}
	}
	out := make([]YearCount, 0, len(counts))
	for y, c := range counts {
		out = append(out, YearCount{Year: y, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}

// TopCWEs returns the most frequent weakness types among matching records,
// most frequent first (ties by ID).
type CWECount struct {
	CWE   cwe.ID
	Count int
}

// TopCWEs returns up to n entries.
func (db *DB) TopCWEs(q Query, n int) []CWECount {
	counts := map[cwe.ID]int{}
	for name := range db.apps {
		if q.App != "" && name != q.App {
			continue
		}
		for _, r := range db.records[name] {
			if q.matches(r) {
				counts[r.CWE]++
			}
		}
	}
	out := make([]CWECount, 0, len(counts))
	for id, c := range counts {
		out = append(out, CWECount{CWE: id, Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].CWE < out[j].CWE
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}
