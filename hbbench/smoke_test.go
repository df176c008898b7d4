package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for hbbench when a rep starts a
// process of its own (reduce's read phase).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
	}
	os.Exit(m.Run())
}

// tinySizes keep each workload to a second or two.
var tinySizes = sizes{Sites: 300, Days: 3, SweepSites: 60, Shards: 3}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// size: every check must pass, and the fingerprint must not depend on
// tracing.
func TestWorkloadsSmoke(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var fps [][]byte
			for i, traced := range []bool{false, true} {
				res, err := runRep(context.Background(), name, 7, i, traced, dir, tinySizes, "")
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("traced=%v: check %q failed: %s", traced, c.Name, c.Detail)
					}
				}
				if res.Failed != 0 || res.Units == 0 || res.RunS <= 0 || res.PerS <= 0 {
					t.Errorf("traced=%v: failed=%d units=%d run_s=%v per_s=%v", traced, res.Failed, res.Units, res.RunS, res.PerS)
				}
				if traced {
					for _, m := range perLayer {
						if _, ok := res.Layers[m.name]; !ok && !strings.HasPrefix(m.name, "runtime.") && !strings.HasPrefix(m.name, "bench.") {
							t.Errorf("traced rep did not measure %s", m.name)
						}
					}
				}
				fp, _ := json.Marshal(res.Fingerprint)
				fps = append(fps, fp)
			}
			if !bytes.Equal(fps[0], fps[1]) {
				t.Errorf("fingerprint differs with tracing:\n untraced %s\n traced   %s", fps[0], fps[1])
			}
		})
	}
}

// TestReportLine checks the last output line's shape: exactly the keys
// correct, attempted, failed and metrics, with every metric of the
// requested kind.
func TestReportLine(t *testing.T) {
	dir := t.TempDir()
	var reps []*repResult
	for i, traced := range []bool{false, true} {
		res, err := runRep(context.Background(), "sweep-faults", 3, i, traced, dir, tinySizes, "")
		if err != nil {
			t.Fatal(err)
		}
		reps = append(reps, res)
	}
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		if code := report(&out, "sweep-faults", 3, trace, reps, nil); code != 0 {
			t.Fatalf("trace=%v: exit code %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
			t.Fatalf("keys of %s", lines[len(lines)-1])
		}
		var metrics map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := endToEnd
		if trace {
			want = perLayer
		}
		if len(metrics) != len(want) {
			t.Errorf("trace=%v: %d metrics, want %d", trace, len(metrics), len(want))
		}
		for _, m := range want {
			if g, ok := metrics[m.name]; !ok || g.Value == nil || g.Unit != m.unit {
				t.Errorf("trace=%v: metric %s = %+v", trace, m.name, g)
			}
		}
	}
}

// TestReportLostRep checks that a rep which returned no result still
// ends the output with the JSON line, marked incorrect.
func TestReportLostRep(t *testing.T) {
	for _, trace := range []bool{false, true} {
		var out bytes.Buffer
		if code := report(&out, "crawl-cold", 1, trace, nil, []string{"rep 0: signal: killed"}); code == 0 {
			t.Fatalf("trace=%v: exit code 0 for a lost rep", trace)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   *bool `json:"correct"`
			Attempted int   `json:"attempted"`
			Failed    int   `json:"failed"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace=%v: last line %q: %v", trace, lines[len(lines)-1], err)
		}
		if got.Correct == nil || *got.Correct || got.Failed < 1 || got.Attempted < got.Failed {
			t.Errorf("trace=%v: %s", trace, lines[len(lines)-1])
		}
	}
}
