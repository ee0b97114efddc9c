package sim

// FreeList holds spare records of one kind for the object that owns them:
// a path's transfers, a scheduler's remote attempts, a substrate's
// executions. A continuation record goes back on its owner's list before
// it calls its caller's callback, so the next operation reuses it and a
// warm owner allocates nothing. Lists are per owner and, like everything
// on an Engine, single-threaded; a record never crosses to another owner
// or shard.
type FreeList[T any] struct {
	spare []*T
}

// Get pops a spare record, or returns nil when there is none.
func (l *FreeList[T]) Get() *T {
	k := len(l.spare) - 1
	if k < 0 {
		return nil
	}
	x := l.spare[k]
	l.spare[k] = nil
	l.spare = l.spare[:k]
	return x
}

// Put returns a record for reuse. The caller clears any fields that would
// otherwise keep finished work reachable.
func (l *FreeList[T]) Put(x *T) { l.spare = append(l.spare, x) }
