package crawler

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"headerbid/internal/core"
	"headerbid/internal/dataset"
)

// TestLazyDetectorGoldenJSON is the laziness-safety proof: a crawl with
// lazily materialized detector state must serialize every SiteRecord —
// non-HB visits (which now allocate no detector maps at all) and HB
// visits alike — to exactly the bytes the eager implementation produced.
func TestLazyDetectorGoldenJSON(t *testing.T) {
	eager := crawlJSONL(t, true)
	lazy := crawlJSONL(t, false)
	if !bytes.Equal(eager, lazy) {
		t.Fatalf("JSONL differs between eager (%d bytes) and lazy (%d bytes) detector state",
			len(eager), len(lazy))
	}

	// The corpus must actually exercise both paths: at least one HB site
	// (every lazy map written) and one non-HB site (none written).
	hb, nonHB := 0, 0
	for _, line := range bytes.Split(bytes.TrimSpace(lazy), []byte("\n")) {
		var rec dataset.SiteRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad record: %v", err)
		}
		if rec.HB {
			hb++
		} else {
			nonHB++
		}
	}
	if hb == 0 || nonHB == 0 {
		t.Fatalf("corpus not representative: %d HB, %d non-HB sites", hb, nonHB)
	}
}

func crawlJSONL(t *testing.T, eager bool) []byte {
	t.Helper()
	prev := core.EagerAttachForTest
	core.EagerAttachForTest = eager
	defer func() { core.EagerAttachForTest = prev }()

	w := smallWorld(t, 120)
	opts := DefaultOptions(17)
	opts.Workers = 1

	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
		return dw.Write(v.Record)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
