//go:build !taskpoison

package sched

// release clears a finished record, keeping its bound callbacks and its
// backend's hop, and puts it back for the next attempt on the engine.
func (p *AttemptPool) release(a *RemoteAttempt) {
	*a = RemoteAttempt{Hop: a.Hop, uplinkFn: a.uplinkFn, downlinkFn: a.downlinkFn,
		execFn: a.execFn, resumeFn: a.resumeFn}
	p.free.Put(a)
}
