package client

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/pkg/api"
)

// readAll runs readStream over data and returns its result with every
// file record it delivered.
func readAll(data []byte) (*api.StreamRecord, []api.StreamFile, error) {
	var files []api.StreamFile
	rec, err := readStream(bytes.NewReader(data), func(f api.StreamFile) { files = append(files, f) })
	return rec, files, err
}

// terminated reports whether a readStream result came from a terminator:
// a summary record, or an error record surfaced as an *APIError.
func terminated(err error) bool {
	var ae *APIError
	return err == nil || errors.As(err, &ae)
}

// FuzzReadStream: readStream never panics; it returns a nil error only
// with a summary record; bytes after the terminating summary or error line
// change neither its result nor its file records (truncated lines, a
// duplicate summary, an error after the summary); and a stream without a
// terminator line is an error.
func FuzzReadStream(f *testing.F) {
	for _, seed := range [][2]string{
		{"{\"type\":\"heartbeat\"}\n{\"type\":\"file\",\"file\":{\"path\":\"a.mc\",\"status\":\"ok\"}}\n{\"type\":\"summary\",\"analyze\":{\"features\":{\"kloc\":0.5}}}\n",
			"{\"type\":\"summary\",\"findings\":{}}\n"},
		{"{\"type\":\"file\",\"file\":{\"path\":\"a.mc\",\"status\":\"timeout\",\"detail\":\"1ms\"}}\n{\"type\":\"error\",\"error\":{\"code\":\"deadline\",\"error\":\"too slow\"}}",
			"{\"type\":\"file\",\"file\":{\"path\":\"b"},
		{"{\"type\":\"summary\",\"findings\":{\"report\":{}}}", "{\"type\":\"error\",\"error\":{\"code\":\"internal\",\"error\":\"late\"}}\n"},
		{"{\"type\":\"fi", ""},
		{"{\"type\":\"file\",\"file\":{\"path\":\"a.mc\"}}\n\n{\"type\":\"heartbeat\"}\n", "{\"type\":\"summary\"}\n"},
		{"\r\n{\"type\":\"error\"}\r\n", "junk"},
		{"{\"type\":\"bogus\"}\n{\"type\":\"summary\"}\n", ""},
	} {
		f.Add([]byte(seed[0]), []byte(seed[1]))
	}
	f.Fuzz(func(t *testing.T, head, tail []byte) {
		rec, files, err := readAll(head)
		if (err == nil) != (rec != nil && rec.Type == api.StreamTypeSummary) {
			t.Fatalf("result %+v with error %v: want a summary exactly when the error is nil", rec, err)
		}

		if terminated(err) {
			longer := append(append(head[:len(head):len(head)], '\n'), tail...)
			rec2, files2, err2 := readAll(longer)
			if !reflect.DeepEqual(rec, rec2) || !reflect.DeepEqual(files, files2) ||
				(err == nil) != (err2 == nil) || (err != nil && !reflect.DeepEqual(err, err2)) {
				t.Fatalf("bytes after the terminator changed the result:\nbefore %+v, %v, %d files\nafter  %+v, %v, %d files",
					rec, err, len(files), rec2, err2, len(files2))
			}
		}

		// Each line decodes on its own, so dropping every line that
		// terminates by itself leaves a stream with no terminator.
		var kept [][]byte
		for _, line := range bytes.Split(head, []byte("\n")) {
			if _, _, err := readAll(line); !terminated(err) {
				kept = append(kept, line)
			}
		}
		if rec, _, err := readAll(bytes.Join(kept, []byte("\n"))); terminated(err) || rec != nil {
			t.Fatalf("stream without a terminator returned %+v, %v", rec, err)
		}
	})
}
