package stats

import (
	"sort"

	"headerbid/internal/wire"
)

// EncodeState serializes the binner for the snapshot codec: every bin in
// ascending index order with its samples in append order. The width is
// not state; the constructor sets it. Sorted keys make the bytes a pure
// function of the accumulated state, so
// encode(decode(encode(b))) == encode(b).
func (b *Binner) EncodeState(w *wire.Writer) {
	idxs := make([]int, 0, len(b.bins))
	for i := range b.bins {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	w.Uvarint(uint64(len(idxs)))
	for _, i := range idxs {
		w.Int(i)
		w.Float64s(b.bins[i])
	}
}

// DecodeState replaces the binner's bins with serialized ones, keeping
// its width.
func (b *Binner) DecodeState(r *wire.Reader) error {
	n := r.Len()
	b.bins = make(map[int][]float64, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		idx := r.Int()
		b.bins[idx] = r.Float64s()
	}
	return r.Err()
}
