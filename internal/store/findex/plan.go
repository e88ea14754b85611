package findex

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/store"
	"repro/internal/store/query"
)

// Options tunes query execution.
type Options struct {
	// ForceFullScan disables the planner, always filtering every run.
	// The parity tests compare its output byte-for-byte against the
	// planned path.
	ForceFullScan bool
}

// Explain describes how a query executed.
type Explain struct {
	// Index names the access path, e.g. `cwe121`, `file("src/a.c")`,
	// `severity[high..critical]`; empty for a full scan. A file, CWE or
	// severity path that a pinned repo narrows ends in ` repo("r")`.
	Index string
	// FullScan reports whether every run row was visited.
	FullScan bool
	// Candidates counts rows fetched (index hits, or all rows for a full
	// scan); Matched counts rows that passed the filter, before LIMIT.
	Candidates int
	Matched    int
}

// String renders the one-line form the CLI's -explain flag prints.
func (e *Explain) String() string {
	path := "full scan"
	if !e.FullScan {
		path = "index=" + e.Index
	}
	return fmt.Sprintf("plan: %s; candidates=%d matched=%d", path, e.Candidates, e.Matched)
}

// planKind is the chosen access path.
type planKind int

const (
	planFull planKind = iota
	planFile
	planCWE
	planSev
	planTime
	planRepo
)

type plan struct {
	kind planKind
	file string
	cwe  uint32
	// severity levels [sevLo, sevHi], inclusive; empty when sevLo > sevHi.
	sevLo, sevHi int
	// time window [timeLo, timeHi); has* mark which bounds exist.
	timeLo, timeHi int64
	hasLo, hasHi   bool
	// repo is the pinned repository: planRepo scans its run rows, and a
	// file, CWE or severity plan with narrow set scans only its entries.
	repo   string
	narrow bool
}

func (p *plan) describe() string {
	var path string
	switch p.kind {
	case planFile:
		path = fmt.Sprintf("file(%q)", p.file)
	case planCWE:
		path = fmt.Sprintf("cwe%d", p.cwe)
	case planSev:
		if p.sevLo > p.sevHi {
			path = "severity[empty]"
			break
		}
		names := []string{"info", "low", "medium", "high", "critical"}
		path = fmt.Sprintf("severity[%s..%s]", names[p.sevLo], names[p.sevHi])
	case planTime:
		lo, hi := "..", ".."
		if p.hasLo {
			lo = fmt.Sprint(p.timeLo)
		}
		if p.hasHi {
			hi = fmt.Sprint(p.timeHi)
		}
		path = fmt.Sprintf("time[%s,%s)", lo, hi)
	case planRepo:
		path = fmt.Sprintf("repo(%q)", p.repo)
	}
	if p.narrow {
		path += fmt.Sprintf(" repo(%q)", p.repo)
	}
	return path
}

// andLeaves collects the comparison leaves reachable through AND nodes
// only — the predicates every matching row must satisfy, hence the ones an
// index may narrow by. Anything under OR or NOT is opaque to the planner.
func andLeaves(e query.Expr, out *[]*query.Cmp) {
	switch n := e.(type) {
	case *query.And:
		andLeaves(n.L, out)
		andLeaves(n.R, out)
	case *query.Cmp:
		*out = append(*out, n)
	}
}

// planQuery picks the access path. Candidate sets from an index are always
// a superset of the true matches (the full row filter runs afterwards), so
// the choice affects cost only, never results. Priority: file equality
// (most selective) > CWE presence > severity floor > time window > repo.
// A query that pins a repo (query.PinnedRepo) narrows a file, CWE or
// severity scan to that repo's entries, which sit together because those
// keys carry repo | 0x00 right after the indexed value. Time keys carry
// the repo after the time, so a time window is not narrowed.
func planQuery(where query.Expr) *plan {
	repo, pinned := query.PinnedRepo(where)
	// Stored repo ids are NUL-free by validation, so a NUL pin matches no
	// row, and it would break the repo | 0x00 framing of a narrowed scan.
	pinned = pinned && !strings.ContainsRune(repo, 0)
	var cmps []*query.Cmp
	andLeaves(where, &cmps)
	p := indexPlan(cmps)
	if p == nil {
		if pinned {
			return &plan{kind: planRepo, repo: repo}
		}
		return &plan{kind: planFull}
	}
	if pinned && p.kind != planTime {
		p.repo, p.narrow = repo, true
	}
	return p
}

// indexPlan picks a secondary index for the AND-level comparisons, or
// returns nil when none applies.
func indexPlan(cmps []*query.Cmp) *plan {
	for _, c := range cmps {
		if c.Field == query.FieldFile && c.Op == query.OpEq && indexedFile(c.Val.Str) {
			return &plan{kind: planFile, file: c.Val.Str}
		}
	}
	for _, c := range cmps {
		if c.Field != query.FieldCWE {
			continue
		}
		v := c.Val.Num
		// Indexable iff the predicate implies count >= 1 (the index only
		// lists runs where the CWE occurs).
		if (c.Op == query.OpGt && v >= 0) || (c.Op == query.OpGe && v >= 1) || (c.Op == query.OpEq && v >= 1) {
			return &plan{kind: planCWE, cwe: c.CWE}
		}
	}
	for _, c := range cmps {
		if c.Field != query.FieldSeverity {
			continue
		}
		lvl, err := query.SeverityOperand(c.Val)
		if err != nil {
			continue
		}
		p := &plan{kind: planSev, sevHi: 4}
		switch c.Op {
		case query.OpEq:
			p.sevLo, p.sevHi = lvl, lvl
		case query.OpGe:
			p.sevLo = lvl
		case query.OpGt:
			p.sevLo = lvl + 1
		default:
			continue
		}
		if p.sevLo < 0 {
			p.sevLo = 0
		}
		if p.sevHi > 4 {
			p.sevHi = 4
		}
		return p
	}
	return planTimeWindow(cmps)
}

// planTimeWindow folds every AND-level time comparison into one [lo, hi)
// window; non-integer operands widen the window by one second (supersets
// are safe, gaps are not).
func planTimeWindow(cmps []*query.Cmp) *plan {
	p := &plan{kind: planTime}
	for _, c := range cmps {
		if c.Field != query.FieldTime {
			continue
		}
		t, err := query.TimeOperand(c.Val)
		if err != nil {
			continue
		}
		frac := c.Val.IsNum && c.Val.Num != math.Trunc(c.Val.Num)
		switch c.Op {
		case query.OpGe:
			p.setLo(t)
		case query.OpGt:
			if frac {
				p.setLo(t) // t was truncated; t>x with frac x means >= t+1, but superset is fine
			} else {
				p.setLo(t + 1)
			}
		case query.OpLt:
			if frac {
				p.setHi(t + 1) // t was truncated; widen to keep the superset
			} else {
				p.setHi(t)
			}
		case query.OpLe:
			p.setHi(t + 1)
		case query.OpEq:
			p.setLo(t)
			p.setHi(t + 1)
		}
	}
	if !p.hasLo && !p.hasHi {
		return nil
	}
	return p
}

func (p *plan) setLo(t int64) {
	if !p.hasLo || t > p.timeLo {
		p.timeLo, p.hasLo = t, true
	}
}

func (p *plan) setHi(t int64) {
	if !p.hasHi || t < p.timeHi {
		p.timeHi, p.hasHi = t, true
	}
}

// Query executes a parsed query and reports how it ran. Results are sorted
// deterministically (ORDER BY key, then repo, seq) and capped by LIMIT.
// The planned path and the full-scan path return byte-identical results;
// opt.ForceFullScan exists so callers can check.
func (s *Store) Query(q *query.Query, opt Options) ([]Run, *Explain, error) {
	p := planQuery(q.Where)
	if opt.ForceFullScan {
		p = &plan{kind: planFull}
	}
	ex := &Explain{Index: p.describe(), FullScan: p.kind == planFull}

	var matches []*Run
	err := s.db.View(func(snap *store.Snapshot) error {
		collect := func(run *Run) error {
			ex.Candidates++
			if q.Where != nil {
				ok, err := evalExpr(run, q.Where)
				if err != nil || !ok {
					return err
				}
			}
			matches = append(matches, run)
			return nil
		}
		if p.kind == planFull {
			return snap.Scan([]byte{prefixRun}, prefixEnd([]byte{prefixRun}), func(k, v []byte) (bool, error) {
				run := new(Run)
				if err := json.Unmarshal(v, run); err != nil {
					return false, fmt.Errorf("findex: run row %q: %w", k, err)
				}
				return true, collect(run)
			})
		}
		fetch := func(repo string, seq uint64) error {
			v, ok, err := snap.Get(runKey(repo, seq))
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("findex: index points at missing run %s/%d", repo, seq)
			}
			run := new(Run)
			if err := json.Unmarshal(v, run); err != nil {
				return fmt.Errorf("findex: run %s/%d: %w", repo, seq, err)
			}
			return collect(run)
		}
		// scanIndex fetches the run behind every index entry under prefix,
		// or under prefix | repo | 0x00 when the plan is narrowed.
		scanIndex := func(prefix []byte) error {
			start := prefix
			if p.narrow {
				start = append(append(prefix[:len(prefix):len(prefix)], p.repo...), 0)
			}
			return snap.Scan(start, prefixEnd(start), func(k, v []byte) (bool, error) {
				repo, seq, err := tailRepoSeq(k, len(prefix))
				if err != nil {
					return false, err
				}
				return true, fetch(repo, seq)
			})
		}
		switch p.kind {
		case planFile:
			prefix := append([]byte{prefixFile}, p.file...)
			return scanIndex(append(prefix, 0))
		case planCWE:
			prefix := make([]byte, 5)
			prefix[0] = prefixCWE
			binary.BigEndian.PutUint32(prefix[1:], p.cwe)
			return scanIndex(prefix)
		case planSev:
			for lvl := p.sevLo; lvl <= p.sevHi; lvl++ {
				if err := scanIndex([]byte{prefixSev, byte(lvl)}); err != nil {
					return err
				}
			}
			return nil
		case planTime:
			start := []byte{prefixTime}
			if p.hasLo {
				start = append(start, be8(biasTime(p.timeLo))...)
			}
			end := prefixEnd([]byte{prefixTime})
			if p.hasHi {
				end = append([]byte{prefixTime}, be8(biasTime(p.timeHi))...)
			}
			return snap.Scan(start, end, func(k, v []byte) (bool, error) {
				repo, seq, err := tailRepoSeq(k, 9)
				if err != nil {
					return false, err
				}
				return true, fetch(repo, seq)
			})
		case planRepo:
			prefix := append([]byte{prefixRun}, p.repo...)
			prefix = append(prefix, 0)
			return snap.Scan(prefix, prefixEnd(prefix), func(k, v []byte) (bool, error) {
				run := new(Run)
				if err := json.Unmarshal(v, run); err != nil {
					return false, fmt.Errorf("findex: run row %q: %w", k, err)
				}
				return true, collect(run)
			})
		}
		return fmt.Errorf("findex: unknown plan kind %d", p.kind)
	})
	if err != nil {
		return nil, nil, err
	}
	ex.Matched = len(matches)
	sortRuns(matches, q)
	if q.Limit >= 0 && len(matches) > q.Limit {
		matches = matches[:q.Limit]
	}
	out := make([]Run, len(matches))
	for i, r := range matches {
		out[i] = *r
	}
	return out, ex, nil
}

// QueryString parses and executes src in one call.
func (s *Store) QueryString(src string, opt Options) ([]Run, *Explain, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return s.Query(q, opt)
}
