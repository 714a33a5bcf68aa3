package prof

import "testing"

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	var ids []uint64
	for i := 0; i < 5; i++ {
		kind := KindHeap
		if i%2 == 0 {
			kind = KindCPU
		}
		ids = append(ids, r.Add(Capture{Meta: CaptureMeta{Kind: kind}, Blob: []byte{byte(i)}}))
	}
	if ids[4] != 5 {
		t.Fatalf("ids = %v, want monotonically increasing from 1", ids)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	list := r.List()
	if len(list) != 3 || list[0].ID != 5 || list[1].ID != 4 || list[2].ID != 3 {
		t.Fatalf("list = %+v, want ids [5 4 3] newest first", list)
	}
	if _, ok := r.Get(1); ok {
		t.Fatal("id 1 should have been evicted")
	}
	c, ok := r.Get(4)
	if !ok || len(c.Blob) != 1 || c.Blob[0] != 3 {
		t.Fatalf("Get(4) = %+v, %v", c, ok)
	}
}

func TestRingListBeforeWrap(t *testing.T) {
	r := NewRing(4)
	r.Add(Capture{Meta: CaptureMeta{Kind: KindCPU}})
	r.Add(Capture{Meta: CaptureMeta{Kind: KindHeap}})
	list := r.List()
	if len(list) != 2 || list[0].ID != 2 || list[1].ID != 1 {
		t.Fatalf("list = %+v, want ids [2 1]", list)
	}
}

func TestRingMinCapacity(t *testing.T) {
	r := NewRing(0)
	r.Add(Capture{Meta: CaptureMeta{Kind: KindCPU}})
	r.Add(Capture{Meta: CaptureMeta{Kind: KindHeap}})
	if r.Len() != 1 {
		t.Fatalf("len = %d, want 1 (capacity clamped to 1)", r.Len())
	}
	list := r.List()
	if len(list) != 1 || list[0].ID != 2 {
		t.Fatalf("list = %+v", list)
	}
}
