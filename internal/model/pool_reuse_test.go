//go:build !taskpoison

package model

import "testing"

func TestTaskPoolReusesReleasedTasks(t *testing.T) {
	var p TaskPool
	x := p.New(Task{ID: 1, App: "a"})
	p.Release(x)
	if *x != (Task{}) {
		t.Fatalf("released task not cleared: %+v", *x)
	}
	if y := p.New(Task{ID: 2}); y != x || y.ID != 2 || !y.pooled() {
		t.Fatal("New did not reuse the released task")
	}
}
