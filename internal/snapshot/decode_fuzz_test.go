package snapshot

import (
	"bytes"
	"io"
	"testing"

	"headerbid/internal/report"
	"headerbid/internal/wire"
)

// FuzzDecodeState feeds one section — a metric name and an arbitrary
// payload — to decodeSection, the path UnmarshalShard decodes every
// section of a shard file with. Decoding must never panic. A payload it
// accepts must re-encode to a fixed point, and the decoded metric must
// render: Snapshot is called on it, and the figure report is rendered in
// full, so a state that decodes but cannot be summarized fails the run.
// The committed corpus under testdata/fuzz/FuzzDecodeState holds every
// registered metric's encoding from a small real crawl, plus the
// format-1 payloads of latency_vs_slots and latency_vs_partner_count
// whose serialized clamp claimed 1<<40 rows.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, name string, payload []byte) {
		m, err := decodeSection(name, payload)
		if err != nil {
			return
		}
		once := encodeSection(t, m)
		m2, err := decodeSection(name, once)
		if err != nil {
			t.Fatalf("%s: re-encoded payload refused: %v", name, err)
		}
		if twice := encodeSection(t, m2); !bytes.Equal(once, twice) {
			t.Fatalf("%s: re-encode is not a fixed point (%d vs %d bytes)", name, len(once), len(twice))
		}
		m.Snapshot()
		if fig, ok := m.(*report.Figures); ok {
			fig.Render(io.Discard)
		}
	})
}

func encodeSection(t *testing.T, m Codec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	m.EncodeState(w)
	if err := w.Err(); err != nil {
		t.Fatalf("%s: encode: %v", m.Name(), err)
	}
	return buf.Bytes()
}
