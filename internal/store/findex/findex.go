// Package findex is the findings time-series on top of the store engine:
// every analysis run is persisted under a (repo, seq) key with secondary
// indexes by CWE, severity, file, and time, and queried through the
// internal/store/query language with an index-aware planner that always
// returns results byte-identical to a full scan.
//
// All records share one keyspace, disambiguated by a prefix byte:
//
//	'r' | repo | 0x00 | seq BE8             -> run JSON
//	'q' | repo                              -> last assigned seq (BE8)
//	'c' | cwe BE4 | repo | 0x00 | seq BE8   -> finding count (BE8)
//	'v' | level  | repo | 0x00 | seq BE8    -> run total (BE8); level is the
//	                                           run's max severity, exactly
//	'f' | file | 0x00 | repo | 0x00 | seq BE8 -> per-file count (BE8)
//	't' | biased time BE8 | repo | 0x00 | seq BE8 -> (empty)
//
// Repo ids are NUL-free by validation; big-endian integers make
// lexicographic key order equal numeric order, which is what turns index
// prefixes into range scans.
package findex

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/findings"
	"repro/internal/store"
)

// Run is one persisted analysis run.
type Run struct {
	Repo        string             `json:"repo"`
	Seq         uint64             `json:"seq"`
	Time        int64              `json:"time"`
	Source      string             `json:"source,omitempty"`
	Score       float64            `json:"score,omitempty"`
	HasScore    bool               `json:"has_score,omitempty"`
	Total       int                `json:"total"`
	MaxSeverity findings.Severity  `json:"max_severity"`
	CountsByCWE map[uint32]int     `json:"counts_by_cwe,omitempty"`
	Findings    []findings.Finding `json:"findings,omitempty"`
}

// NewRun builds a Run from a findings report. Seq and Time are assigned at
// Append; pass score via WithScore for scored sources.
func NewRun(repo, source string, rep *findings.Report) Run {
	r := Run{Repo: repo, Source: source, Total: rep.Total(), Findings: rep.Findings}
	counts := make(map[uint32]int)
	for _, f := range rep.Findings {
		counts[uint32(f.CWE)]++
		if f.Severity > r.MaxSeverity {
			r.MaxSeverity = f.Severity
		}
	}
	if len(counts) > 0 {
		r.CountsByCWE = counts
	}
	return r
}

// WithScore attaches a model score to the run.
func (r Run) WithScore(score float64) Run {
	r.Score, r.HasScore = score, true
	return r
}

// files returns the sorted distinct files with findings.
func (r *Run) files() []string {
	seen := make(map[string]bool)
	for _, f := range r.Findings {
		seen[f.File] = true
	}
	out := make([]string, 0, len(seen))
	for f := range seen {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Store is an open findings time-series database.
type Store struct {
	db *store.DB
}

// Open opens or creates the database at path.
func Open(path string) (*Store, error) {
	db, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	return &Store{db: db}, nil
}

// OpenDB wraps an already-open engine (tests and benchmarks tune Options).
func OpenDB(db *store.DB) *Store { return &Store{db: db} }

// Close flushes and closes the underlying engine.
func (s *Store) Close() error { return s.db.Close() }

// DB exposes the engine for stats exposition.
func (s *Store) DB() *store.DB { return s.db }

// --- key encoding ---

const (
	prefixRun  = 'r'
	prefixSeq  = 'q'
	prefixCWE  = 'c'
	prefixSev  = 'v'
	prefixFile = 'f'
	prefixTime = 't'
)

func be8(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// biasTime maps int64 seconds to uint64 preserving order.
func biasTime(t int64) uint64 { return uint64(t) ^ (1 << 63) }

func runKey(repo string, seq uint64) []byte {
	k := make([]byte, 0, 2+len(repo)+8)
	k = append(k, prefixRun)
	k = append(k, repo...)
	k = append(k, 0)
	return append(k, be8(seq)...)
}

func seqKey(repo string) []byte {
	return append([]byte{prefixSeq}, repo...)
}

func cweKey(id uint32, repo string, seq uint64) []byte {
	k := make([]byte, 0, 6+len(repo)+9)
	k = append(k, prefixCWE)
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], id)
	k = append(k, b[:]...)
	k = append(k, repo...)
	k = append(k, 0)
	return append(k, be8(seq)...)
}

func sevKey(level byte, repo string, seq uint64) []byte {
	k := make([]byte, 0, 3+len(repo)+9)
	k = append(k, prefixSev, level)
	k = append(k, repo...)
	k = append(k, 0)
	return append(k, be8(seq)...)
}

func fileKey(file, repo string, seq uint64) []byte {
	k := make([]byte, 0, 3+len(file)+len(repo)+9)
	k = append(k, prefixFile)
	k = append(k, file...)
	k = append(k, 0)
	k = append(k, repo...)
	k = append(k, 0)
	return append(k, be8(seq)...)
}

func timeKey(t int64, repo string, seq uint64) []byte {
	k := make([]byte, 0, 10+len(repo)+9)
	k = append(k, prefixTime)
	k = append(k, be8(biasTime(t))...)
	k = append(k, repo...)
	k = append(k, 0)
	return append(k, be8(seq)...)
}

// tailRepoSeq decodes the `repo | 0x00 | seq BE8` tail shared by every
// index key, given the fixed-prefix length.
func tailRepoSeq(key []byte, prefixLen int) (repo string, seq uint64, err error) {
	if len(key) < prefixLen+9 || key[len(key)-9] != 0 {
		return "", 0, fmt.Errorf("findex: malformed index key %q", key)
	}
	return string(key[prefixLen : len(key)-9]), binary.BigEndian.Uint64(key[len(key)-8:]), nil
}

// prefixEnd is the smallest key greater than every key with the prefix.
func prefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil // prefix is all 0xff: scan to the end of the keyspace
}

// indexedFile reports whether a finding's file name gets 'f' index
// entries. The name is a NUL-terminated key segment, so an empty or
// NUL-containing name has none, and the planner must not pick the file
// index for it.
func indexedFile(name string) bool { return name != "" && !strings.ContainsRune(name, 0) }

func validateRepo(repo string) error {
	if repo == "" {
		return fmt.Errorf("findex: empty repo id")
	}
	if strings.ContainsRune(repo, 0) {
		return fmt.Errorf("findex: repo id contains NUL")
	}
	if len(repo) > 200 {
		return fmt.Errorf("findex: repo id longer than 200 bytes")
	}
	return nil
}

// Append persists the run, assigning the repo's next sequence number (and
// stamping Time if unset) and writing every secondary index entry in the
// same transaction, so indexes can never drift from rows.
func (s *Store) Append(run Run) (uint64, error) {
	if err := validateRepo(run.Repo); err != nil {
		return 0, err
	}
	if run.Time == 0 {
		run.Time = time.Now().Unix()
	}
	var seq uint64
	err := s.db.Update(func(tx *store.Tx) error {
		sk := seqKey(run.Repo)
		cur, ok, err := tx.Get(sk)
		if err != nil {
			return err
		}
		seq = 1
		if ok && len(cur) == 8 {
			seq = binary.BigEndian.Uint64(cur) + 1
		}
		run.Seq = seq
		if err := tx.Put(sk, be8(seq)); err != nil {
			return err
		}
		data, err := json.Marshal(&run)
		if err != nil {
			return err
		}
		if err := tx.Put(runKey(run.Repo, seq), data); err != nil {
			return err
		}
		for id, count := range run.CountsByCWE {
			if count <= 0 {
				continue
			}
			if err := tx.Put(cweKey(id, run.Repo, seq), be8(uint64(count))); err != nil {
				return err
			}
		}
		if err := tx.Put(sevKey(byte(run.MaxSeverity), run.Repo, seq), be8(uint64(run.Total))); err != nil {
			return err
		}
		fileCounts := make(map[string]int)
		for _, f := range run.Findings {
			fileCounts[f.File]++
		}
		for _, file := range run.files() {
			if !indexedFile(file) {
				continue // the row itself still records it
			}
			if err := tx.Put(fileKey(file, run.Repo, seq), be8(uint64(fileCounts[file]))); err != nil {
				return err
			}
		}
		return tx.Put(timeKey(run.Time, run.Repo, seq), nil)
	})
	if err != nil {
		return 0, err
	}
	return seq, nil
}

// Get fetches one run by (repo, seq).
func (s *Store) Get(repo string, seq uint64) (*Run, bool, error) {
	var run *Run
	var found bool
	err := s.db.View(func(snap *store.Snapshot) error {
		v, ok, err := snap.Get(runKey(repo, seq))
		if err != nil || !ok {
			return err
		}
		run = new(Run)
		if err := json.Unmarshal(v, run); err != nil {
			return fmt.Errorf("findex: run %s/%d: %w", repo, seq, err)
		}
		found = true
		return nil
	})
	return run, found, err
}

// LastSeq returns the highest sequence number assigned for repo (0 if none).
func (s *Store) LastSeq(repo string) (uint64, error) {
	var seq uint64
	err := s.db.View(func(snap *store.Snapshot) error {
		v, ok, err := snap.Get(seqKey(repo))
		if err == nil && ok && len(v) == 8 {
			seq = binary.BigEndian.Uint64(v)
		}
		return err
	})
	return seq, err
}
