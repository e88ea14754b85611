package cvedb

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cvss"
	"repro/internal/cwe"
	"repro/internal/lang"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func rec(id, app string, t time.Time, cweID cwe.ID, v3 string) Record {
	v, err := cvss.ParseV3(v3)
	if err != nil {
		panic(err)
	}
	return Record{
		ID: id, App: app, Published: t, CWE: cweID,
		V3: v3, Score: v.MustBaseScore(),
	}
}

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	if err := db.AddApp(App{Name: "httpd", Language: lang.C, KLoC: 500}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddApp(App{Name: "parser", Language: lang.Java, KLoC: 80}); err != nil {
		t.Fatal(err)
	}
	records := []Record{
		rec("CVE-2010-0001", "httpd", date(2010, 1, 1), 121, "AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"),
		rec("CVE-2016-0002", "httpd", date(2016, 6, 1), 79, "AV:N/AC:L/PR:N/UI:R/S:C/C:L/I:L/A:N"),
		rec("CVE-2013-0003", "httpd", date(2013, 3, 1), 476, "AV:L/AC:L/PR:L/UI:N/S:U/C:N/I:N/A:H"),
		rec("CVE-2015-0004", "parser", date(2015, 5, 1), 20, "AV:N/AC:H/PR:N/UI:N/S:U/C:L/I:N/A:N"),
	}
	for _, r := range records {
		if err := db.AddRecord(r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestAddAndCount(t *testing.T) {
	db := testDB(t)
	if db.NumApps() != 2 {
		t.Fatalf("NumApps = %d", db.NumApps())
	}
	if db.NumRecords() != 4 {
		t.Fatalf("NumRecords = %d", db.NumRecords())
	}
}

func TestRecordsSortedByDate(t *testing.T) {
	db := testDB(t)
	recs := db.Records("httpd")
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Published.Before(recs[i-1].Published) {
			t.Fatalf("records out of order: %v", recs)
		}
	}
	if recs[0].ID != "CVE-2010-0001" || recs[2].ID != "CVE-2016-0002" {
		t.Fatalf("unexpected order: %s .. %s", recs[0].ID, recs[2].ID)
	}
}

func TestAddRecordValidation(t *testing.T) {
	db := New()
	if err := db.AddRecord(Record{ID: "CVE-1", App: "ghost", V3: "x"}); err == nil {
		t.Fatal("record for unknown app accepted")
	}
	if err := db.AddApp(App{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := db.AddRecord(Record{ID: "", App: "a", V3: "x"}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := db.AddRecord(Record{ID: "CVE-2", App: "a"}); err == nil {
		t.Fatal("record without vector accepted")
	}
	if err := db.AddApp(App{}); err == nil {
		t.Fatal("empty app name accepted")
	}
}

func TestHistorySpanAndSelection(t *testing.T) {
	db := testDB(t)
	span := db.HistorySpan("httpd")
	if span < 6*365*24*time.Hour {
		t.Fatalf("httpd span = %v", span)
	}
	if db.HistorySpan("parser") != 0 {
		t.Fatal("single-record app should have zero span")
	}
	// Selection reads the age of the oldest report, not the span: parser's
	// single 2015 report admits it once that report is five years old.
	sel := db.SelectEstablished(FiveYears, date(2018, 1, 1))
	if len(sel) != 1 || sel[0].Name != "httpd" {
		t.Fatalf("SelectEstablished(2018) = %v", sel)
	}
	all := db.SelectEstablished(FiveYears, date(2021, 1, 1))
	if len(all) != 2 {
		t.Fatalf("SelectEstablished(2021) = %v", all)
	}
}

func TestStatsFor(t *testing.T) {
	db := testDB(t)
	s, err := db.StatsFor("httpd")
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 3 {
		t.Fatalf("Count = %d", s.Count)
	}
	if s.HighSeverity != 1 { // only the 9.8
		t.Fatalf("HighSeverity = %d", s.HighSeverity)
	}
	if s.NetworkVector != 2 {
		t.Fatalf("NetworkVector = %d", s.NetworkVector)
	}
	if s.StackOverflow != 1 {
		t.Fatalf("StackOverflow = %d", s.StackOverflow)
	}
	if s.MemorySafety != 2 { // CWE-121 and CWE-476
		t.Fatalf("MemorySafety = %d", s.MemorySafety)
	}
	if s.MaxScore != 9.8 {
		t.Fatalf("MaxScore = %v", s.MaxScore)
	}
	if s.FirstPublished != date(2010, 1, 1) || s.LastPublished != date(2016, 6, 1) {
		t.Fatalf("history endpoints wrong: %v %v", s.FirstPublished, s.LastPublished)
	}
}

func TestStatsForUnknown(t *testing.T) {
	if _, err := testDB(t).StatsFor("nope"); err == nil {
		t.Fatal("unknown app stats succeeded")
	}
}

func TestStatsForEmptyApp(t *testing.T) {
	db := New()
	if err := db.AddApp(App{Name: "fresh"}); err != nil {
		t.Fatal(err)
	}
	s, err := db.StatsFor("fresh")
	if err != nil {
		t.Fatal(err)
	}
	if s.Count != 0 || s.MeanScore != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestNetworkAttackableV2Fallback(t *testing.T) {
	r := Record{V2: "AV:N/AC:L/Au:N/C:P/I:P/A:P"}
	if !r.NetworkAttackable() {
		t.Fatal("v2 network vector not detected")
	}
	r = Record{V2: "AV:L/AC:L/Au:N/C:P/I:P/A:P"}
	if r.NetworkAttackable() {
		t.Fatal("v2 local vector misdetected")
	}
	if (Record{}).NetworkAttackable() {
		t.Fatal("vectorless record misdetected")
	}
}

func TestSeverityHelper(t *testing.T) {
	r := Record{Score: 9.8}
	if r.Severity() != cvss.SeverityCritical {
		t.Fatalf("Severity = %v", r.Severity())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := testDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumApps() != db.NumApps() || loaded.NumRecords() != db.NumRecords() {
		t.Fatalf("round trip lost data: %d/%d apps, %d/%d records",
			loaded.NumApps(), db.NumApps(), loaded.NumRecords(), db.NumRecords())
	}
	a, ok := loaded.App("httpd")
	if !ok || a.Language != lang.C || a.KLoC != 500 {
		t.Fatalf("app metadata lost: %+v", a)
	}
	orig := db.Records("httpd")
	got := loaded.Records("httpd")
	for i := range orig {
		if got[i].ID != orig[i].ID || got[i].Score != orig[i].Score {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], orig[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage decoded")
	}
	// Records referencing unknown apps must be rejected.
	bad := `{"apps":[],"records":[{"id":"CVE-1","app":"ghost","v3":"AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"}]}`
	if _, err := Load(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("dangling record accepted")
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	db := testDB(t)
	recs := db.Records("httpd")
	recs[0].ID = "MUTATED"
	if db.Records("httpd")[0].ID == "MUTATED" {
		t.Fatal("Records exposed internal slice")
	}
}
