package cvedb

import (
	"testing"
	"time"

	"repro/internal/cvss"
	"repro/internal/cwe"
)

func TestSelectByApp(t *testing.T) {
	db := testDB(t)
	recs := db.Select(Query{App: "httpd"})
	if len(recs) != 3 {
		t.Fatalf("httpd records = %d", len(recs))
	}
	all := db.Select(Query{})
	if len(all) != 4 {
		t.Fatalf("all records = %d", len(all))
	}
}

func TestSelectByCWEHierarchy(t *testing.T) {
	db := testDB(t)
	// CWE-121 is-a CWE-119: querying the parent matches the child record.
	recs := db.Select(Query{CWE: 119})
	if len(recs) != 1 || recs[0].CWE != 121 {
		t.Fatalf("CWE-119 query = %+v", recs)
	}
}

func TestSelectByClass(t *testing.T) {
	db := testDB(t)
	recs := db.Select(Query{Class: cwe.ClassMemory})
	if len(recs) != 2 { // CWE-121 and CWE-476
		t.Fatalf("memory-class records = %d", len(recs))
	}
}

func TestSelectByScoreBand(t *testing.T) {
	db := testDB(t)
	high := db.Select(Query{MinScore: 9})
	if len(high) != 1 {
		t.Fatalf("high records = %d", len(high))
	}
	mid := db.Select(Query{MinScore: 3, MaxScore: 7})
	for _, r := range mid {
		if r.Score < 3 || r.Score > 7 {
			t.Fatalf("score band leak: %v", r.Score)
		}
	}
}

func TestSelectByDateWindow(t *testing.T) {
	db := testDB(t)
	recs := db.Select(Query{
		From: date(2012, 1, 1),
		To:   date(2014, 12, 31),
	})
	if len(recs) != 1 || recs[0].ID != "CVE-2013-0003" {
		t.Fatalf("window = %+v", recs)
	}
}

func TestSelectNetworkOnly(t *testing.T) {
	db := testDB(t)
	recs := db.Select(Query{NetworkOnly: true})
	for _, r := range recs {
		if !r.NetworkAttackable() {
			t.Fatalf("non-network record: %s", r.ID)
		}
	}
	if len(recs) != 3 {
		t.Fatalf("network records = %d", len(recs))
	}
}

func TestCountMatchesSelect(t *testing.T) {
	db := testDB(t)
	queries := []Query{
		{}, {App: "httpd"}, {MinScore: 7}, {Class: cwe.ClassMemory},
		{NetworkOnly: true}, {CWE: 20},
	}
	for _, q := range queries {
		if db.Count(q) != len(db.Select(q)) {
			t.Fatalf("Count/Select disagree for %+v", q)
		}
	}
}

func TestSeverityHistogram(t *testing.T) {
	db := testDB(t)
	h := db.SeverityHistogram(Query{})
	total := 0
	for _, c := range h {
		total += c
	}
	if total != 4 {
		t.Fatalf("histogram mass = %d", total)
	}
	if h[cvss.SeverityCritical] != 1 { // the 9.8
		t.Fatalf("critical = %d", h[cvss.SeverityCritical])
	}
}

func TestYearHistogramSorted(t *testing.T) {
	db := testDB(t)
	ys := db.YearHistogram(Query{App: "httpd"})
	if len(ys) != 3 {
		t.Fatalf("years = %+v", ys)
	}
	for i := 1; i < len(ys); i++ {
		if ys[i].Year <= ys[i-1].Year {
			t.Fatalf("unsorted: %+v", ys)
		}
	}
	if ys[0].Year != 2010 || ys[0].Count != 1 {
		t.Fatalf("first year = %+v", ys[0])
	}
}

func TestTopCWEs(t *testing.T) {
	db := New()
	if err := db.AddApp(App{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	mk := func(id string, c cwe.ID, tm time.Time) Record {
		return Record{ID: id, App: "a", Published: tm, CWE: c,
			V3: "AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H", Score: 9.8}
	}
	for i, c := range []cwe.ID{79, 79, 79, 121, 121, 20} {
		if err := db.AddRecord(mk(time.Now().Format("CVE-2006")+string(rune('a'+i)), c, date(2010+i, 1, 1))); err != nil {
			t.Fatal(err)
		}
	}
	top := db.TopCWEs(Query{}, 2)
	if len(top) != 2 {
		t.Fatalf("top = %+v", top)
	}
	if top[0].CWE != 79 || top[0].Count != 3 {
		t.Fatalf("top[0] = %+v", top[0])
	}
	if top[1].CWE != 121 || top[1].Count != 2 {
		t.Fatalf("top[1] = %+v", top[1])
	}
	all := db.TopCWEs(Query{}, 0)
	if len(all) != 3 {
		t.Fatalf("all = %+v", all)
	}
}
