package snapshot_test

import (
	"bytes"
	"io"
	"testing"

	"headerbid/internal/snapshot"
)

// FuzzUnmarshalShard feeds arbitrary bytes to the shard-file reader, the
// decoder of files another process wrote. The source hides its size, as
// an *os.File does, so every length prefix takes the unsized path. The
// reader must never panic, and a file it accepts must re-marshal to a
// fixed point: the bytes marshaled from the decoded state read back and
// marshal to the same bytes again. The committed corpus under
// testdata/fuzz/FuzzUnmarshalShard holds a real shard of every
// registered metric plus truncated and garbled variants of it.
func FuzzUnmarshalShard(f *testing.F) {
	f.Fuzz(func(t *testing.T, file []byte) {
		h, ms, err := snapshot.UnmarshalShard(struct{ io.Reader }{bytes.NewReader(file)})
		if err != nil {
			return
		}
		once := shardFileBytes(t, h, ms)
		h2, ms2, err := snapshot.UnmarshalShard(bytes.NewReader(once))
		if err != nil {
			t.Fatalf("re-marshaled file refused: %v", err)
		}
		if twice := shardFileBytes(t, h2, ms2); !bytes.Equal(once, twice) {
			t.Fatalf("re-marshal is not a fixed point (%d vs %d bytes)", len(once), len(twice))
		}
	})
}
