package dataset

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// NewLineDecoder returns the zero-reflection line decoder alone, one
// stream's worth (its intern table persists across calls), for the
// external tests that crawl through internal/crawler, which imports this
// package. ok=false means ReadStream would fall back to encoding/json.
func NewLineDecoder() func(line []byte) (rec *SiteRecord, ok bool) {
	var d recordDecoder
	return func(line []byte) (*SiteRecord, bool) {
		rec := new(SiteRecord)
		return rec, d.decode(line, rec)
	}
}

// StdReadStream is ReadStream with every line decoded by encoding/json:
// the reference the decoder is checked and benchmarked against.
func StdReadStream(r io.Reader, fn func(*SiteRecord) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec SiteRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if err := fn(&rec); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}
