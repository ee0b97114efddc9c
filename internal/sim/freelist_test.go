package sim

import "testing"

type listed struct {
	v int
	Link[*listed]
}

// TestFreeListReusesLastIn pins the list's order and its count: the last
// record put back is the first one got, and an empty list gets nil.
func TestFreeListReusesLastIn(t *testing.T) {
	var l FreeList[*listed]
	if l.Get() != nil || l.Len() != 0 {
		t.Fatal("an empty list handed out a record")
	}
	a, b := &listed{v: 1}, &listed{v: 2}
	l.Put(a)
	l.Put(b)
	if l.Len() != 2 {
		t.Fatalf("Len %d after two Puts, want 2", l.Len())
	}
	if x := l.Get(); x != b || x.next != nil {
		t.Fatalf("first Get returned %+v, want the last record put, unlinked", x)
	}
	if x := l.Get(); x != a || x.next != nil {
		t.Fatalf("second Get returned %+v, want the first record put, unlinked", x)
	}
	if l.Get() != nil || l.Len() != 0 {
		t.Fatal("a drained list handed out a record")
	}
}

// TestFreeListAllocatesNothing holds Put and Get to zero allocations once
// the list has records: the list links them through their own field.
func TestFreeListAllocatesNothing(t *testing.T) {
	var l FreeList[*listed]
	recs := make([]*listed, 64)
	for i := range recs {
		recs[i] = &listed{v: i}
		l.Put(recs[i])
	}
	n := testing.AllocsPerRun(100, func() {
		for i := range recs {
			recs[i] = l.Get()
		}
		for _, r := range recs {
			l.Put(r)
		}
	})
	if n != 0 {
		t.Fatalf("a Get and Put round of %d records allocates %v times, want 0", len(recs), n)
	}
	if l.Len() != len(recs) {
		t.Fatalf("Len %d, want %d", l.Len(), len(recs))
	}
}
