package dataset_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
	"headerbid/internal/overlay"
	"headerbid/internal/simnet"
	"headerbid/internal/sitegen"
)

// crawlJSONL crawls a small world for several days and returns the JSONL
// Writer emits for it. With faults, every partner endpoint runs a fault
// overlay (transport errors, slow-loris abandonment, garbled bodies) and
// one site's visits panic into quarantine records, so the lines carry
// partner_errors, retries, abandoned, quarantined and panic_site.
func crawlJSONL(tb testing.TB, sites, days int, faults bool) []byte {
	tb.Helper()
	cfg := sitegen.DefaultConfig(11)
	cfg.NumSites = sites
	w := sitegen.Generate(cfg)
	opts := crawler.DefaultOptions(11)
	opts.Days = days
	if faults {
		opts.Overlay = &overlay.Overlay{Faults: []overlay.Fault{{
			Partner: "*", FailProb: 0.2, Err: "injected reset",
			SlowLorisProb: 0.2, SlowLorisStretch: 2 * time.Minute,
			GarbleProb: 0.1,
		}}}
		target := w.Sites[5].Domain
		opts.VisitHook = func(_ *simnet.Network, s *sitegen.Site, _ int) {
			if s.Domain == target {
				panic("injected visit panic")
			}
		}
	}
	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	for _, rec := range crawler.CrawlWorld(w, opts) {
		if err := dw.Write(rec); err != nil {
			tb.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestFastPathTakesEveryWrittenLine: every line Writer emits for a
// multi-day crawl under a fault overlay is accepted by the zero-
// reflection decoder — no fallback — and decodes to exactly the record
// json.Unmarshal builds. A decoder that always fell back would pass every
// byte-identity check and gain nothing; this test is what rules it out.
func TestFastPathTakesEveryWrittenLine(t *testing.T) {
	jsonl := crawlJSONL(t, 1500, 3, true)
	decode := dataset.NewLineDecoder()
	var lines int
	facets := map[string]int{}
	var errs, retries, abandoned, quarantined, multiDay int
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	for sc.Scan() {
		lines++
		got, ok := decode(sc.Bytes())
		if !ok {
			t.Fatalf("line %d fell back to encoding/json: %s", lines, sc.Bytes())
		}
		var want dataset.SiteRecord
		if err := json.Unmarshal(sc.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("line %d diverged from encoding/json:\nfast %#v\njson %#v", lines, got, &want)
		}
		facets[got.Facet]++
		errs += len(got.PartnerErrors)
		retries += got.Retries
		abandoned += got.Abandoned
		if got.Quarantined {
			quarantined++
		}
		if got.VisitDay > 0 {
			multiDay++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// The fixture must exercise every part of the line shape, or the
	// test proves less than it claims.
	for _, f := range []string{"", "client", "server", "hybrid"} {
		if facets[f] == 0 {
			t.Errorf("no %q-facet records in the fixture (facets %v)", f, facets)
		}
	}
	if errs == 0 || retries == 0 || abandoned == 0 || quarantined == 0 || multiDay == 0 {
		t.Errorf("fixture lacks degradation labels or revisits: partner_errors=%d retries=%d abandoned=%d quarantined=%d revisits=%d",
			errs, retries, abandoned, quarantined, multiDay)
	}

	// And ReadStream as a whole hands back the reference reader's records.
	var fast, std []*dataset.SiteRecord
	if err := dataset.ReadStream(bytes.NewReader(jsonl), func(r *dataset.SiteRecord) error {
		fast = append(fast, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := dataset.StdReadStream(bytes.NewReader(jsonl), func(r *dataset.SiteRecord) error {
		std = append(std, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(fast) != lines || !reflect.DeepEqual(fast, std) {
		t.Fatalf("ReadStream diverged from the encoding/json reader (%d vs %d records)", len(fast), len(std))
	}
}

// BenchmarkReadStream decodes an HB-heavy JSONL fixture (a 3-day crawl:
// day 0 over every site, then two revisits of the HB sites) through
// ReadStream; the _StdJSON row decodes the same bytes with encoding/json
// per line. Both report µs, bytes and allocations per record.
func BenchmarkReadStream(b *testing.B) {
	benchReader(b, dataset.ReadStream)
}

func BenchmarkReadStream_StdJSON(b *testing.B) {
	benchReader(b, dataset.StdReadStream)
}

func benchReader(b *testing.B, read func(io.Reader, func(*dataset.SiteRecord) error) error) {
	jsonl := crawlJSONL(b, 2000, 3, false)
	records := bytes.Count(jsonl, []byte{'\n'})
	b.SetBytes(int64(len(jsonl)))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := read(bytes.NewReader(jsonl), func(*dataset.SiteRecord) error {
			n++
			return nil
		}); err != nil || n != records {
			b.Fatalf("read %d/%d records: %v", n, records, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(records)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/per, "µs/record")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/per, "B/record")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/record")
}
