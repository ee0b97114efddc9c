//go:build !taskpoison

package model

// release clears t and keeps it for the next New.
func (p *TaskPool) release(t *Task) {
	*t = Task{}
	p.free.Put(t)
}
