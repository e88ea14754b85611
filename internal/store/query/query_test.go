package query

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return q
}

func TestParseCanonical(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"", ""},
		{"score > 5", `score > 5`},
		{"SCORE >= 0.5", `score >= 0.5`},
		{"cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20",
			`(cwe121 > 0 AND severity >= "high") ORDER BY score DESC LIMIT 20`},
		{`repo = "app-7" OR repo = other`, `(repo = "app-7" OR repo = "other")`},
		{"NOT total = 0", `NOT total = 0`},
		{"not (score > 1 and score < 2)", `NOT (score > 1 AND score < 2)`},
		{"ORDER BY time", "ORDER BY time ASC"},
		{"LIMIT 3", "LIMIT 3"},
		{`time >= "2026-08-01" AND time < 1800000000`,
			`(time >= "2026-08-01" AND time < 1.8e+09)`},
		{"severity = 3", "severity = 3"},
		{"cwe121>0 OR cwe787>0 AND total>5",
			`(cwe121 > 0 OR (cwe787 > 0 AND total > 5))`}, // AND binds tighter
		{`file = "src/a.c" ORDER BY cwe121 DESC`, `file = "src/a.c" ORDER BY cwe121 DESC`},
	}
	for _, c := range cases {
		q := mustParse(t, c.src)
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.src, got, c.want)
		}
	}
}

func TestParseFixpoint(t *testing.T) {
	srcs := []string{
		"cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20",
		"(score > 1 OR score < 0.5) AND NOT repo = x",
		"NOT NOT total != 0",
		"seq >= 10 AND seq < 20 ORDER BY seq ASC LIMIT 0",
		"",
	}
	for _, src := range srcs {
		once := mustParse(t, src).String()
		twice := mustParse(t, once).String()
		if once != twice {
			t.Errorf("not a fixpoint: %q -> %q -> %q", src, once, twice)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"bogus > 1", "unknown field"},
		{"score >", "expected a value"},
		{"score 5", "comparison operator"},
		{"score > high", "numeric value"},
		{"repo > \"x\"", "only = and !="},
		{"repo = 5", "string value"},
		{"severity = urgent", "unknown severity"},
		{"time = \"yesterday\"", "time needs"},
		{"(score > 1", "expected ')'"},
		{"score > 1 AND", "field name"},
		{"LIMIT 2.5", "integer"},
		{"ORDER BY", "field after ORDER BY"},
		{"ORDER time", "expected BY after ORDER"},
		{"score ! 1", "stray '!'"},
		{"score > 1 garbage", "unexpected"},
		{`file = "unterminated`, "unterminated string"},
		{"cweX > 0", "malformed CWE field"},
		{"score > 1.2.3", "unexpected"},
		{"score > 5..", "malformed number"},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseStructure(t *testing.T) {
	q := mustParse(t, "cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20")
	and, ok := q.Where.(*And)
	if !ok {
		t.Fatalf("root is %T, want *And", q.Where)
	}
	l := and.L.(*Cmp)
	if l.Field != FieldCWE || l.CWE != 121 || l.Op != OpGt || !l.Val.IsNum || l.Val.Num != 0 {
		t.Fatalf("left cmp wrong: %+v", l)
	}
	r := and.R.(*Cmp)
	if r.Field != FieldSeverity || r.Op != OpGe || r.Val.Str != "high" {
		t.Fatalf("right cmp wrong: %+v", r)
	}
	if q.OrderBy != FieldScore || !q.Desc || q.Limit != 20 {
		t.Fatalf("tail wrong: order=%q desc=%v limit=%d", q.OrderBy, q.Desc, q.Limit)
	}
	if lvl, err := SeverityOperand(r.Val); err != nil || lvl != 3 {
		t.Fatalf("SeverityOperand(high) = %d, %v", lvl, err)
	}
}

func TestPinnedRepo(t *testing.T) {
	cases := []struct {
		src, want string
		ok        bool
	}{
		{`repo = "web"`, "web", true},
		{`score > 0.5 AND repo = web AND cwe121 > 0`, "web", true},
		// The first equality on the spine pins, even when a later one
		// contradicts it.
		{`repo = "a" AND repo = "b"`, "a", true},
		{`(repo = "a" AND score > 1) AND repo = "b"`, "a", true},
		{`repo = ""`, "", true},
		{"", "", false},
		{"score > 0.5", "", false},
		{`repo != "a"`, "", false},
		{`repo = "a" OR repo = "b"`, "", false},
		{`NOT repo = "a"`, "", false},
		{`(repo = "a" OR score > 1) AND cwe121 > 0`, "", false},
	}
	for _, c := range cases {
		got, ok := PinnedRepo(mustParse(t, c.src).Where)
		if got != c.want || ok != c.ok {
			t.Errorf("PinnedRepo(%q) = %q, %v; want %q, %v", c.src, got, ok, c.want, c.ok)
		}
	}
}

func TestTimeOperand(t *testing.T) {
	if got, err := TimeOperand(Value{IsNum: true, Num: 12345}); err != nil || got != 12345 {
		t.Fatalf("numeric time = %d, %v", got, err)
	}
	got, err := TimeOperand(Value{Str: "2026-08-01"})
	if err != nil || got <= 0 {
		t.Fatalf("date time = %d, %v", got, err)
	}
	rfc, err := TimeOperand(Value{Str: "2026-08-01T00:00:00Z"})
	if err != nil || rfc != got {
		t.Fatalf("RFC 3339 midnight %d != date form %d (%v)", rfc, got, err)
	}
}

// FuzzQueryParse holds the parser to two properties on arbitrary input:
// it never panics, and for accepted inputs the canonical print reparses to
// the same canonical print (parse → print → reparse fixpoint).
func FuzzQueryParse(f *testing.F) {
	seeds := []string{
		"",
		"cwe121 > 0 AND severity >= high ORDER BY score DESC LIMIT 20",
		`repo = "a\"b" OR NOT (total = 0)`,
		"time >= \"2026-08-01\" LIMIT 5",
		"score > 0.5 OR score < 0.1 AND seq != 3",
		"NOT NOT NOT file = x",
		"((((score > 1))))",
		"ORDER BY cwe787 DESC",
		"severity = critical",
		"score >",
		"\"",
		"cwe > 1",
		"limit 9999999999999999999999",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		q2, err := Parse(printed)
		if err != nil {
			t.Fatalf("canonical form does not reparse: %q -> %q: %v", src, printed, err)
		}
		if again := q2.String(); again != printed {
			t.Fatalf("print not a fixpoint: %q -> %q -> %q", src, printed, again)
		}
	})
}
