package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"
)

// FuzzReadStream differentially checks the zero-reflection line decoder
// against encoding/json. Whenever the decoder accepts a line, json must
// accept it too and build a reflect.DeepEqual record (which tells nil
// from empty slices and maps). And ReadStream as a whole — fast path,
// fallback, blank lines, line numbers — must never panic and must hand
// back exactly the records and error of the all-encoding/json reader.
//
// The committed corpus under testdata/fuzz/FuzzReadStream/ holds real
// lines from a small faulted multi-day crawl (client-side, hosted,
// hybrid and non-HB visits, a visit with partner_errors, retries and
// abandoned bids, a quarantined visit) and hostile variants of them:
// escapes, invalid UTF-8, duplicate and case-folded keys, null, 1e2 in
// an int field, trailing garbage.
func FuzzReadStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var d recordDecoder
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
		for sc.Scan() {
			line := sc.Bytes()
			var fast SiteRecord
			if !d.decode(line, &fast) {
				continue
			}
			var want SiteRecord
			if err := json.Unmarshal(line, &want); err != nil {
				t.Fatalf("fast path accepted %q, which json rejects: %v", line, err)
			}
			if !reflect.DeepEqual(fast, want) {
				t.Fatalf("fast path diverged on %q:\nfast %#v\njson %#v", line, fast, want)
			}
		}

		got, gerr := collectStream(ReadStream, data)
		want, werr := collectStream(StdReadStream, data)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("error diverged on %q: ReadStream %v, encoding/json %v", data, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("records diverged on %q:\nReadStream %#v\nencoding/json %#v", data, got, want)
		}
	})
}

func collectStream(read func(io.Reader, func(*SiteRecord) error) error, data []byte) ([]*SiteRecord, error) {
	var out []*SiteRecord
	err := read(bytes.NewReader(data), func(r *SiteRecord) error {
		out = append(out, r)
		return nil
	})
	return out, err
}
