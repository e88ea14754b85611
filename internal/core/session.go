package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/ir"
	"repro/internal/lint"
	"repro/internal/metrics"
	"repro/internal/ml"
	"repro/internal/trace"
)

// This file is the apply-a-changeset form of the extraction pipeline,
// behind /v1/delta. A Session holds one tree's per-file state — base-metric
// scans, lint counts, and deep-analysis enrichments — plus the aggregation
// state needed to update the tree-level feature vector when only a few
// files change. The correctness contract is byte parity: after any
// sequence of changesets, Features() is bit-identical to a fresh full
// ExtractFeaturesDiagnostics of the final tree at any Jobs width.
//
// How parity is maintained:
//   - Base metrics live in a metrics.TreeStats: exact integer sums by
//     delta, maxima by reference-counted value multisets, duplicate-line
//     and Halstead state as the same multiset maps the batch scan builds,
//     floats derived at Features() time by the shared batch code.
//   - Lint warnings are a per-file integer count (lint warnings depend
//     only on the file), summed by delta. The feature-cache records carry
//     the same per-file counts, but sessions still lint touched files
//     themselves (DESIGN.md §6a), so this sum is written after the fold.
//   - Deep-analysis enrichments are cached per file; their two float sums
//     (FeasiblePaths, CovSum) are not associative under reordering, so the
//     aggregate is re-folded over all files in path order each Apply using
//     the same aggregateEnrichments the batch extractor uses. That fold is
//     a handful of adds per file — microseconds even for large trees —
//     while the expensive per-file work (tokenize, parse, symexec, interp)
//     runs only for touched files.

// Changeset describes one edit step against a session's tree. Paths obey
// the same rules as a batch tree: non-empty, unique, and meaningful to the
// session (Added must be new, Modified and Removed must exist — anything
// else means caller and session disagree about the current state, which is
// reported as ErrStaleSession so the caller can re-seed).
type Changeset struct {
	Added    []metrics.File
	Modified []metrics.File
	Removed  []string
}

// Empty reports whether the changeset carries no work.
func (cs *Changeset) Empty() bool {
	return len(cs.Added) == 0 && len(cs.Modified) == 0 && len(cs.Removed) == 0
}

// ErrStaleSession reports a changeset that contradicts the session's
// current file set. The caller's picture of the tree has diverged (or the
// session is fresh after an eviction); recovery is re-seeding with a full
// Added changeset.
var ErrStaleSession = errors.New("core: changeset does not match session state")

// ErrSessionEmpty rejects a changeset that would leave the session with no
// files, mirroring the batch pipeline's refusal to analyze an empty tree.
var ErrSessionEmpty = errors.New("core: changeset would leave the session empty")

// sessionFile is one file's retained analysis state.
type sessionFile struct {
	file   metrics.File
	scan   *metrics.FileScan
	lints  int
	enr    fileEnrichment
	status FileStatus
	detail string
}

// Session holds the incremental analysis state of one tree. All methods
// are safe for concurrent use; Apply calls serialize.
type Session struct {
	name string
	cfg  ExtractConfig

	mu        sync.Mutex
	files     map[string]*sessionFile
	paths     []string // sorted; the canonical tree order
	stats     *metrics.TreeStats
	lintTotal int
	seq       uint64
	fv        metrics.FeatureVector // features after the last Apply
}

// NewSession returns an empty session. The first Apply must seed it with
// an Added-only view of the full tree.
func NewSession(name string, cfg ExtractConfig) *Session {
	return &Session{
		name:  name,
		cfg:   cfg,
		files: map[string]*sessionFile{},
		stats: metrics.NewTreeStats(),
	}
}

// ApplyResult is the outcome of one changeset.
type ApplyResult struct {
	// Seq numbers the session's applied changesets, starting at 1.
	Seq uint64
	// Files is the session's file count after the changeset.
	Files int
	// Features is the tree's feature vector after the changeset,
	// byte-identical to a full extraction of the same tree.
	Features metrics.FeatureVector
	// OldFeatures is the vector before the changeset; nil on the seeding
	// changeset, when there is no previous state to diff against.
	OldFeatures metrics.FeatureVector
	// Diagnostics covers the re-extracted (added + modified) files in path
	// order, plus this changeset's feature-cache traffic.
	Diagnostics *AnalysisDiagnostics
}

// Name returns the session's identifier.
func (s *Session) Name() string { return s.name }

// Seq returns the number of changesets applied so far.
func (s *Session) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Len returns the session's current file count.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}

// Features returns a copy of the vector from the last Apply, or nil before
// the first.
func (s *Session) Features() metrics.FeatureVector {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fv == nil {
		return nil
	}
	return s.fv.Clone()
}

// Tree reconstructs the session's current tree in canonical (path-sorted)
// order — the exact tree a parity check feeds to the batch extractor.
func (s *Session) Tree() *metrics.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &metrics.Tree{Name: s.name}
	for _, p := range s.paths {
		t.Files = append(t.Files, s.files[p].file)
	}
	return t
}

// validate checks the changeset against the current file set without
// mutating anything, so a rejected changeset leaves the session exactly as
// it was.
func (s *Session) validate(cs Changeset) error {
	if cs.Empty() {
		return fmt.Errorf("core: empty changeset")
	}
	seen := map[string]bool{}
	note := func(p string) error {
		if p == "" {
			return fmt.Errorf("core: changeset contains an empty file path")
		}
		if seen[p] {
			return fmt.Errorf("core: changeset names %q more than once", p)
		}
		seen[p] = true
		return nil
	}
	for _, f := range cs.Added {
		if err := note(f.Path); err != nil {
			return err
		}
		if _, ok := s.files[f.Path]; ok {
			return fmt.Errorf("%w: added file %q already present", ErrStaleSession, f.Path)
		}
	}
	for _, f := range cs.Modified {
		if err := note(f.Path); err != nil {
			return err
		}
		if _, ok := s.files[f.Path]; !ok {
			return fmt.Errorf("%w: modified file %q not present", ErrStaleSession, f.Path)
		}
	}
	for _, p := range cs.Removed {
		if err := note(p); err != nil {
			return err
		}
		if _, ok := s.files[p]; !ok {
			return fmt.Errorf("%w: removed file %q not present", ErrStaleSession, p)
		}
	}
	if len(s.files)+len(cs.Added)-len(cs.Removed) == 0 {
		return ErrSessionEmpty
	}
	return nil
}

// Apply runs one changeset: re-extracts the touched files on the worker
// pool, then atomically updates the session's aggregates. On any error —
// validation, stale state, or context cancellation mid-extraction — the
// session state is untouched and the next Apply sees the previous tree.
func (s *Session) Apply(ctx context.Context, cs Changeset) (*ApplyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.validate(cs); err != nil {
		return nil, err
	}

	ext := trace.SpanFromContext(ctx).Child("apply")
	defer ext.End()

	// Extraction phase: pure — results land in a scratch slice keyed by
	// the changed-file order, nothing touches session state until the pool
	// has drained and the context is known good.
	changed := make([]metrics.File, 0, len(cs.Added)+len(cs.Modified))
	changed = append(changed, cs.Added...)
	changed = append(changed, cs.Modified...)
	sort.Slice(changed, func(i, j int) bool { return changed[i].Path < changed[j].Path })

	var ct cacheTraffic
	results := make([]*sessionFile, len(changed))
	_ = ml.ParallelForCtx(ctx, len(changed), s.cfg.Jobs, func(i int) error {
		f := changed[i]
		fs := ext.ChildAt(i, trace.SpanNameFile)
		fs.SetLabel(f.Path)
		fs.Add("bytes", int64(len(f.Content)))
		sf := &sessionFile{file: f, scan: metrics.ScanFile(f)}
		ast, prog, _ := ir.Parse(f.Content)
		sf.lints = lint.CheckFile(f, ast, prog).Total()
		sf.enr, sf.status, sf.detail = enrichFileCached(ctx, f, s.cfg, &ct, fs)
		fs.End()
		results[i] = sf
		return nil
	})
	// As in ExtractFeaturesDiagnostics: ctx, not the pool's result, decides
	// whether the run is discarded.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Commit phase: pure delta bookkeeping, no failure paths.
	for _, p := range cs.Removed {
		s.dropLocked(p)
	}
	for _, sf := range results {
		if old, ok := s.files[sf.file.Path]; ok {
			s.stats.Remove(old.scan)
			s.lintTotal -= old.lints
		} else {
			s.insertPathLocked(sf.file.Path)
		}
		s.stats.Add(sf.scan)
		s.lintTotal += sf.lints
		s.files[sf.file.Path] = sf
	}
	s.seq++

	// Feature assembly, sharing the batch extractor's code paths.
	fv := s.stats.Features()
	enrs := make([]fileEnrichment, len(s.paths))
	for i, p := range s.paths {
		enrs[i] = s.files[p].enr
	}
	setEnrichmentFeatures(fv, aggregateEnrichments(enrs))
	fv[metrics.FeatLintWarnings] = float64(s.lintTotal)

	diag := &AnalysisDiagnostics{Files: make([]FileDiagnostic, len(results))}
	for i, sf := range results {
		diag.Files[i] = FileDiagnostic{Path: sf.file.Path, Status: sf.status, Detail: sf.detail}
	}
	diag.CacheHits, diag.CacheMisses = ct.hits.Load(), ct.misses.Load()

	old := s.fv
	s.fv = fv
	return &ApplyResult{
		Seq:         s.seq,
		Files:       len(s.files),
		Features:    fv.Clone(),
		OldFeatures: old,
		Diagnostics: diag,
	}, nil
}

// dropLocked removes one path's state. Callers must hold s.mu and have
// validated that the path exists.
func (s *Session) dropLocked(p string) {
	sf := s.files[p]
	s.stats.Remove(sf.scan)
	s.lintTotal -= sf.lints
	delete(s.files, p)
	i := sort.SearchStrings(s.paths, p)
	s.paths = append(s.paths[:i], s.paths[i+1:]...)
}

// insertPathLocked adds a new path to the sorted order. Callers must hold
// s.mu.
func (s *Session) insertPathLocked(p string) {
	i := sort.SearchStrings(s.paths, p)
	s.paths = append(s.paths, "")
	copy(s.paths[i+1:], s.paths[i:])
	s.paths[i] = p
}
