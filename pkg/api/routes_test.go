package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/langgen"
)

// unmarshalKey is the key function a Route had before content elision: a
// full json.Unmarshal of the body into the route's request type.
func unmarshalKey[Req Keyed](Route[Req]) func(body []byte) (string, error) {
	return func(body []byte) (string, error) {
		var req Req
		if err := json.Unmarshal(body, &req); err != nil {
			return "", fmt.Errorf("decode request: %w", err)
		}
		return req.ShardKey()
	}
}

// referenceKeys holds unmarshalKey for every Route, by path.
var referenceKeys = map[string]func(body []byte) (string, error){
	ScoreRoute.Path:          unmarshalKey(ScoreRoute),
	AnalyzeRoute.Path:        unmarshalKey(AnalyzeRoute),
	AnalyzeStreamRoute.Path:  unmarshalKey(AnalyzeStreamRoute),
	FindingsRoute.Path:       unmarshalKey(FindingsRoute),
	FindingsStreamRoute.Path: unmarshalKey(FindingsStreamRoute),
	CompareRoute.Path:        unmarshalKey(CompareRoute),
	DeltaRoute.Path:          unmarshalKey(DeltaRoute),
	RankRoute.Path:           unmarshalKey(RankRoute),
	QueryRoute.Path:          unmarshalKey(QueryRoute),
}

// scoreBody is a /v1/score body of a generated MiniC tree of n files, at
// the generator setting servebench draws its trees from (16 files encode
// to about 31 KB).
func scoreBody(tb testing.TB, name string, n int) []byte {
	tb.Helper()
	spec := langgen.DefaultSpec()
	spec.Files, spec.FuncsPerFile, spec.StmtsPerFunc = n, 3, 6
	req := ScoreRequest{Tree: Tree{Name: name}}
	for _, f := range langgen.Generate(spec).Files {
		req.Tree.Files = append(req.Tree.Files, File{Path: f.Path, Content: f.Content})
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// FuzzShardKey holds every route's key function to the full json.Unmarshal
// it replaces: for any body, both give the same key, or errors with the
// same text.
func FuzzShardKey(f *testing.F) {
	keys := ShardKeys()
	for path := range keys {
		if referenceKeys[path] == nil {
			f.Fatalf("route %s has no reference key function", path)
		}
	}
	if len(keys) != len(referenceKeys) {
		f.Fatalf("%d routes, %d reference key functions", len(keys), len(referenceKeys))
	}
	for _, seed := range []string{
		string(scoreBody(f, "app", 2)),
		`{"tree":{"name":"r1","files":[{"path":"a.c","content":"int main(void){\n\treturn \"\\u00e9\";}"}]}}`,
		`{"old":{"name":"x","files":[{"content":"a","path":"a.c"}]},"new":{"name":"y","files":[{"path":"b.c","content":"b\\\\"}]}}`,
		`{"repo_id":"app","changeset":{"added":[{"path":"a.c","content":"x"}],"modified":[{"path":"b.c","content":"\/y"}],"removed":["c.c"]}}`,
		`{"query":"repo = \"web\" and score > 0.5","content":"ignored"}`,
		` {"content":"top","tree":{"content":"not a field","name":"n"}} `,
		`{"tree":{"name":{"content":"x"}}}`,
		`{"tree":{"files":[{"content":7}, {"content":["a"]}, {"content":null}]}}`,
		`{"tree":{"files":[{"Content":"upper case","path":"a.c"}],"name":"c"},"timeout_ms":-1.5e3}`,
		`{"tree":{"files":[{"content":"ctrl ` + "\x01" + `"}]}}`,
		`{"tree":{"files":[{"content":"bad \x escape"}]}}`,
		`{"tree":{"files":[{"content":"\u12"}]}}`,
		`{"tree":{"files":[{"content":"unterminated`,
		`{"tree":{"files":[{"content":"a"}]}} trailing`,
		`{"tree":{"files":[{"content":"a"}]},"top":01}`,
		`{"tree":{"name":"\xff\xfe","files":[{"content":"\xff"}]}}`,
		strings.Repeat(`{"content":"x","a":`, 70) + `1` + strings.Repeat(`}`, 70),
		`[{"content":"x"}]`,
		`"content"`,
		``,
		`{bad json`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for path, key := range keys {
			got, gotErr := key(body)
			want, wantErr := referenceKeys[path](body)
			if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("%s %q: key %q, %v; json.Unmarshal gives %q, %v", path, body, got, gotErr, want, wantErr)
			}
		}
	})
}

// TestElideContent: a request's file contents are elided, and a body the
// elider cannot vouch for comes back as the same slice.
func TestElideContent(t *testing.T) {
	for _, c := range []struct{ in, want string }{
		{`{"tree":{"name":"a","files":[{"path":"x.c","content":"int \"q\";\n"},{"content":"","path":"y.c"}]}}`,
			`{"tree":{"name":"a","files":[{"path":"x.c","content":""},{"content":"","path":"y.c"}]}}`},
		{`{"repo_id":"r","changeset":{"added":[{"content" : "a\u0041"}]}}`,
			`{"repo_id":"r","changeset":{"added":[{"content" : ""}]}}`},
		{`{"content":"x","Content":"y","name":{"content":"z"}}`, `{"content":"","Content":"y","name":{"content":""}}`},
	} {
		if got := elideContent([]byte(c.in)); string(got) != c.want {
			t.Errorf("elideContent(%s) = %s, want %s", c.in, got, c.want)
		}
	}
	for _, in := range []string{
		`{"tree":{"files":[{"content":"a"}]}}x`,
		`{"tree":{"files":[{"content":"` + "\n" + `"}]}}`,
		`{"tree":{"files":[{"content":"\q"}]}}`,
		`{"tree":{"files":[{"content":"a"}],}}`,
		strings.Repeat(`[`, maxElideDepth) + `{"content":"a"}` + strings.Repeat(`]`, maxElideDepth),
		`{"tree":{"files":[]}}`,
	} {
		body := []byte(in)
		if got := elideContent(body); &got[0] != &body[0] || len(got) != len(body) {
			t.Errorf("elideContent(%s) = %s, want the body itself", in, got)
		}
	}
	if body := scoreBody(t, "app", 16); !bytes.Contains(elideContent(body), []byte(`"content":""`)) {
		t.Errorf("a generated score body kept its contents")
	}
}

// BenchmarkShardKey times the /v1/score key function on a servebench-sized
// body (16 generated files, about 31 KB): "elided" is ShardKeys' function,
// "unmarshal" the full json.Unmarshal it replaced.
func BenchmarkShardKey(b *testing.B) {
	body := scoreBody(b, "app", 16)
	for _, bc := range []struct {
		name string
		key  func([]byte) (string, error)
	}{
		{"elided", ShardKeys()[ScoreRoute.Path]},
		{"unmarshal", referenceKeys[ScoreRoute.Path]},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := bc.key(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
