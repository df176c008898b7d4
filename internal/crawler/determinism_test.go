package crawler

import (
	"bytes"
	"context"
	"runtime"
	"strconv"
	"testing"

	"headerbid/internal/dataset"
	"headerbid/internal/sitegen"
)

// jsonlOf serializes a crawl to JSONL through the streaming path with the
// given worker count.
func jsonlOf(t *testing.T, workers, days int) []byte {
	t.Helper()
	w := smallWorld(t, 150)
	opts := DefaultOptions(31)
	opts.Workers = workers
	opts.Days = days

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

// TestJSONLIdenticalAcrossWorkerCounts is the determinism proof for the
// splittable PRNG: per-visit streams are derived from (seed, site, day)
// alone, so the number of concurrent workers — and therefore the order
// visits execute in — must not change a single byte of the dataset.
func TestJSONLIdenticalAcrossWorkerCounts(t *testing.T) {
	serial := jsonlOf(t, 1, 2)
	if len(serial) == 0 {
		t.Fatal("empty dataset")
	}
	parallel := jsonlOf(t, runtime.NumCPU(), 2)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("JSONL differs between Workers=1 (%d bytes) and Workers=%d (%d bytes)",
			len(serial), runtime.NumCPU(), len(parallel))
	}
	// And re-running the same configuration reproduces it exactly.
	if !bytes.Equal(serial, jsonlOf(t, 1, 2)) {
		t.Fatal("identical crawl configuration did not reproduce identical JSONL")
	}
}

// TestShardedCrawlIsExactSubset: crawling a lazily generated shard
// world emits, per record, exactly the bytes the full-world crawl emits
// for that site — per-visit randomness is derived from (seed, site,
// day) alone, so partitioning the world cannot perturb a single record.
// Concatenating the shard datasets recovers a permutation of the full
// dataset with no site lost or duplicated.
func TestShardedCrawlIsExactSubset(t *testing.T) {
	const n = 3
	cfg := sitegen.DefaultConfig(42)
	cfg.NumSites = 150
	opts := DefaultOptions(31)
	opts.Days = 2

	lineOf := func(w *sitegen.World) map[string][]byte {
		t.Helper()
		out := make(map[string][]byte)
		err := CrawlStreamSharded(context.Background(), w, opts, func(v Visit) error {
			var buf bytes.Buffer
			dw := dataset.NewWriter(&buf)
			if err := dw.Write(v.Record); err != nil {
				return err
			}
			if err := dw.Close(); err != nil {
				return err
			}
			key := v.Record.Domain + "#" + strconv.Itoa(v.Record.VisitDay)
			if _, dup := out[key]; dup {
				t.Fatalf("visit %s emitted twice", key)
			}
			out[key] = buf.Bytes()
			return nil
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	full := lineOf(sitegen.Generate(cfg))
	got := 0
	for i := 0; i < n; i++ {
		part := lineOf(sitegen.GenerateShard(cfg, sitegen.Shard{Index: i, Count: n}))
		got += len(part)
		for key, line := range part {
			want, ok := full[key]
			if !ok {
				t.Fatalf("shard %d emitted visit %s absent from the full crawl", i, key)
			}
			if !bytes.Equal(line, want) {
				t.Fatalf("visit %s: shard %d record differs from full-crawl record", key, i)
			}
		}
	}
	if got != len(full) {
		t.Fatalf("shards emitted %d visits, full crawl %d", got, len(full))
	}
}

// TestJSONLIdenticalStreamingVsBatch: the batch convenience must
// serialize to the same bytes the streaming path emits.
func TestJSONLIdenticalStreamingVsBatch(t *testing.T) {
	streamed := jsonlOf(t, 4, 1)

	w := smallWorld(t, 150)
	opts := DefaultOptions(31)
	opts.Workers = 4
	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	for _, rec := range CrawlWorld(w, opts) {
		if err := dw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, buf.Bytes()) {
		t.Fatal("JSONL differs between streaming and batch crawls")
	}
}
