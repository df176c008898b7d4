package slab

import "testing"

type item struct {
	n int
	p *int
}

func TestRewindReusesZeroedStorage(t *testing.T) {
	var s Slab[item]
	var first []*item
	for i := 0; i < chunkLen+3; i++ {
		it := s.New()
		if it.n != 0 || it.p != nil {
			t.Fatalf("New returned a dirty value %+v", *it)
		}
		it.n, it.p = i+1, &it.n
		first = append(first, it)
	}
	s.Rewind()
	for i := range first {
		if it := s.New(); it != first[i] || it.n != 0 || it.p != nil {
			t.Fatalf("value %d after Rewind: %p %+v, want %p zeroed", i, it, *it, first[i])
		}
	}
}

func TestDropKeepsHandedOutValues(t *testing.T) {
	var s Slab[item]
	old := s.New()
	old.n = 7
	s.Drop()
	if fresh := s.New(); fresh == old || old.n != 7 {
		t.Fatalf("Drop reused or cleared a value still in use: %p %p %+v", fresh, old, *old)
	}
}

func TestNeverRewoundSlabStopsGrowing(t *testing.T) {
	var s Slab[item]
	for i := 0; i < 3*maxLen; i++ {
		s.New()
	}
	if s.used != maxLen || len(s.chunks) != maxLen/chunkLen {
		t.Fatalf("slab holds %d values in %d chunks, want its cap %d", s.used, len(s.chunks), maxLen)
	}
}
