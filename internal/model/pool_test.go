package model

import "testing"

func TestTaskPoolNeverReleasesACopy(t *testing.T) {
	var p TaskPool
	x := p.New(Task{ID: 7, App: "a", Cycles: 1e9})
	c := *x
	p.Release(&c)
	if p.free.Len() != 0 || c.ID != 7 || c.Cycles != 1e9 {
		t.Fatalf("a by-value copy was released: %d spare, copy %+v", p.free.Len(), c)
	}
	// A task built from a pooled task's value is pooled in its own right.
	y := p.New(*x)
	if y == x || !y.pooled() || !x.pooled() {
		t.Fatal("New of a pooled task's value did not make a task of its own")
	}
	p.Release(x)
	if x.ID == 7 || x.pooled() {
		t.Fatalf("released task still reads as before: %+v", *x)
	}
	spare := p.free.Len()
	p.Release(x) // a second release does nothing
	if p.free.Len() != spare {
		t.Fatal("a task was released twice")
	}
	if y.ID != 7 {
		t.Fatal("releasing one task changed another")
	}
}

func TestTaskPoolLeavesForeignTasks(t *testing.T) {
	var p TaskPool
	var nilPool *TaskPool
	plain := &Task{ID: 1}
	fromNil := nilPool.New(Task{ID: 2})
	p.Release(plain)
	p.Release(fromNil)
	p.Release(nil)
	nilPool.Release(p.New(Task{ID: 3}))
	if p.free.Len() != 0 || plain.ID != 1 || fromNil.ID != 2 || fromNil.pooled() {
		t.Fatal("a task no pool handed out was released")
	}
}

// pooled reports whether a pool owns t.
func (t *Task) pooled() bool { return t.owner == t }
