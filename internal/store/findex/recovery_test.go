package findex

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/store"
)

// TestCrashRecoveryKeepsAcknowledgedRuns appends runs into a store whose
// WAL fails partway through a commit (store.Options.CrashWALBytes), drops
// the handles without the closing checkpoint, as a killed process would,
// and reopens the files. Every acknowledged run must come back with its
// total, no unacknowledged run may appear, and the planner must answer
// from an index exactly what a full scan answers over the recovered rows.
func TestCrashRecoveryKeepsAcknowledgedRuns(t *testing.T) {
	for _, c := range []struct {
		crash int64
		runs  int
		seed  int64
	}{
		{128 << 10, 600, 0xc0ffee},
		{300 << 10, 1200, 99},
	} {
		t.Run(fmt.Sprintf("crash=%d", c.crash), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "findex.db")
			db, err := store.Open(path, store.Options{CrashWALBytes: c.crash})
			if err != nil {
				t.Fatal(err)
			}
			s := OpenDB(db)
			rng := rand.New(rand.NewSource(c.seed))
			repos := []string{"app-a", "app-b", "app-c"}
			type ack struct {
				repo  string
				seq   uint64
				total int
			}
			var acks []ack
			crashed := false
			for i := 0; i < c.runs; i++ {
				r := synthRun(rng, repos[i%len(repos)], i)
				seq, err := s.Append(r)
				if errors.Is(err, store.ErrCrashInjected) || errors.Is(err, store.ErrFailed) {
					crashed = true
					break
				}
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				acks = append(acks, ack{r.Repo, seq, r.Total})
			}
			if !crashed || len(acks) == 0 {
				t.Fatalf("crash at %d WAL bytes fired=%v after %d acknowledged runs; want it to fire after at least one", c.crash, crashed, len(acks))
			}
			if err := db.Abandon(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(path)
			if err != nil {
				t.Fatalf("reopen after the crash: %v", err)
			}
			defer re.Close()
			for _, a := range acks {
				got, ok, err := re.Get(a.repo, a.seq)
				if err != nil || !ok {
					t.Fatalf("acknowledged run %s/%d after recovery: found=%v err=%v", a.repo, a.seq, ok, err)
				}
				if got.Total != a.total {
					t.Fatalf("run %s/%d recovered with total %d, want %d", a.repo, a.seq, got.Total, a.total)
				}
			}
			all, _, err := re.QueryString("", Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(acks) {
				t.Fatalf("recovered %d runs, acknowledged %d", len(all), len(acks))
			}
			for _, q := range []string{
				"cwe121 > 0",
				"severity >= high ORDER BY score DESC LIMIT 20",
				`repo = "app-b" AND total > 0 ORDER BY time DESC`,
			} {
				planned, ex, err := re.QueryString(q, Options{})
				if err != nil {
					t.Fatalf("query %q: %v", q, err)
				}
				full, _, err := re.QueryString(q, Options{ForceFullScan: true})
				if err != nil {
					t.Fatalf("full scan %q: %v", q, err)
				}
				pj, _ := json.Marshal(planned)
				fj, _ := json.Marshal(full)
				if string(pj) != string(fj) {
					t.Errorf("%q after recovery:\n planned: %s\n full:    %s", q, pj, fj)
				}
				if ex.FullScan {
					t.Errorf("%q fell back to a full scan after recovery", q)
				}
			}
			t.Logf("%d acknowledged runs survived the crash", len(acks))
		})
	}
}
