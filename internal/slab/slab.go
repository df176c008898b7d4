// Package slab provides the per-visit storage that pooled visit state
// hands out for each simulated fetch: values are carved in order from
// fixed-size chunks and reused after a rewind, so a pooled network or
// page allocates no per-fetch object once its chunks exist.
package slab

// chunkLen is the number of values per chunk, and maxLen the number a
// slab hands out between rewinds; values past it come from the heap. A
// page visit makes a few dozen fetches, so maxLen is never reached on
// the crawl path: it bounds what a slab that is never rewound keeps
// alive.
const (
	chunkLen = 32
	maxLen   = 32 * chunkLen
)

// Slab hands out pointers to zeroed values of T. A pointer stays valid,
// and its value untouched by the slab, until the next Rewind or Drop.
// The zero value is an empty slab.
type Slab[T any] struct {
	chunks [][]T
	used   int
}

// New returns a pointer to a zeroed T.
func (s *Slab[T]) New() *T {
	i := s.used
	if i >= maxLen {
		return new(T)
	}
	if i/chunkLen == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, chunkLen))
	}
	s.used++
	return &s.chunks[i/chunkLen][i%chunkLen]
}

// Rewind zeroes every value handed out and makes it reusable. The caller
// guarantees that no pointer from before the rewind is used again.
func (s *Slab[T]) Rewind() {
	for i := 0; i*chunkLen < s.used; i++ {
		clear(s.chunks[i][:min(chunkLen, s.used-i*chunkLen)])
	}
	s.used = 0
}

// Drop forgets every value handed out without reusing it, for when a
// pointer may still be in use: those values stay as they are, and the
// garbage collector frees them once nothing references them.
func (s *Slab[T]) Drop() {
	s.chunks = nil
	s.used = 0
}
