package scenario

import (
	"bytes"
	"context"
	"testing"

	"headerbid/internal/crawler"
	"headerbid/internal/dataset"
)

// Determinism under chaos: fault injection is an overlay like any
// other, so the sweep laws extend to it unchanged — the faulted
// variants are byte-identical across worker counts, and their presence
// in a sweep leaves the zero-fault baseline untouched.

// chaosSweepRun executes a fault+chaos sweep and returns the rendered
// comparison plus one faulted variant's dataset bytes.
func chaosSweepRun(t *testing.T, workers, conc int, variant string) (render, jsonl []byte) {
	t.Helper()
	w := testWorld(t, 400, 11)
	opts := crawler.DefaultOptions(11)
	opts.Workers = workers

	var buf bytes.Buffer
	dw := dataset.NewWriter(&buf)
	sw := &Sweep{
		World:       w,
		Opts:        opts,
		Axes:        []Axis{FaultAxis(0.2, 0.5), ChaosAxis()},
		Concurrency: conc,
		Emit: func(axis, name string, v crawler.Visit) error {
			if name == variant {
				return dw.Write(v.Record)
			}
			return nil
		},
	}
	cmp, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := dw.Close(); err != nil {
		t.Fatal(err)
	}
	var rbuf bytes.Buffer
	cmp.Render(&rbuf)
	return rbuf.Bytes(), buf.Bytes()
}

// TestChaosSweepByteIdenticalAcrossWorkers is the acceptance criterion
// for deterministic chaos: the fault-axis sweep — dataset bytes of a
// faulted variant and the rendered report alike — is identical whether
// visits run on 1, 2, 3 or 7 workers (several shard groupings, whatever
// the machine's CPU count), and whether variants run serially or
// concurrently. Fault draws come from the per-visit seeded stream, so
// scheduling cannot reorder them.
func TestChaosSweepByteIdenticalAcrossWorkers(t *testing.T) {
	serialRender, serialJSONL := chaosSweepRun(t, 1, 1, "fail=20%")
	if len(serialJSONL) == 0 {
		t.Fatal("faulted variant emitted no dataset")
	}
	for _, workers := range []int{2, 3, 7} {
		parallelRender, parallelJSONL := chaosSweepRun(t, workers, 3, "fail=20%")
		if !bytes.Equal(serialJSONL, parallelJSONL) {
			t.Fatalf("faulted variant JSONL differs between 1 and %d workers (%d vs %d bytes)",
				workers, len(serialJSONL), len(parallelJSONL))
		}
		if !bytes.Equal(serialRender, parallelRender) {
			t.Fatalf("chaos comparison render differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serialRender, parallelRender)
		}
	}
}

// TestFaultSweepBaselineByteIdenticalToPlainCrawl: adding fault axes to
// a sweep must not perturb the zero-fault baseline by a single byte —
// the controlled-comparison contract. This is what the dedicated fault
// RNG stream buys: faulted variants take extra draws, the baseline
// takes none, and the two never share stream state.
func TestFaultSweepBaselineByteIdenticalToPlainCrawl(t *testing.T) {
	w := testWorld(t, 400, 11)
	opts := crawler.DefaultOptions(11)

	want := crawlJSONL(t, w, opts)

	sw := &Sweep{
		World:       w,
		Opts:        opts,
		Axes:        []Axis{FaultAxis(0.5), ChaosAxis()},
		Concurrency: 4, // force faulted variants to overlap the baseline
	}
	got := sweepVariantJSONL(t, sw, BaselineName)
	if !bytes.Equal(got, want) {
		t.Fatalf("baseline dataset perturbed by fault axes (%d vs %d bytes)", len(got), len(want))
	}
}
