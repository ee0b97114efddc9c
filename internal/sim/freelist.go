package sim

// FreeList holds spare records of one kind for the object that owns them:
// a path's transfers, an engine's remote attempts, a substrate's
// executions. A continuation record goes back on its owner's list before
// it calls its caller's callback, so the next operation reuses it and a
// warm owner allocates nothing.
//
// The list is intrusive: it threads spare records through a link field
// each record carries (an embedded Link, or a field of the record's own
// that is idle while the record is spare, as model.Task's owner is), so
// Put and Get never allocate and a spare record costs nothing beyond
// itself. Records come back in last-in, first-out order. A record must
// be on at most one list, at most once. Lists are per owner and, like
// everything on an Engine, single-threaded; a record never crosses to
// another owner or shard.
type FreeList[P Linked[P]] struct {
	head P
	n    int
}

// Linked is a pointer to a record a FreeList can hold: FreeLink returns
// the address of the field the list links the record through while it
// is spare.
type Linked[P any] interface {
	comparable
	FreeLink() *P
}

// Link is a link field for records to embed: Link[*rec] in rec makes
// *rec Linked.
type Link[P any] struct{ next P }

// FreeLink returns the link's address.
func (k *Link[P]) FreeLink() *P { return &k.next }

// Get pops a spare record, or returns nil when there is none. The
// returned record's link is cleared.
func (l *FreeList[P]) Get() P {
	var none P
	x := l.head
	if x == none {
		return none
	}
	link := x.FreeLink()
	l.head, *link = *link, none
	l.n--
	return x
}

// Put returns a record for reuse. The caller clears any fields that would
// otherwise keep finished work reachable.
func (l *FreeList[P]) Put(x P) {
	*x.FreeLink() = l.head
	l.head = x
	l.n++
}

// Len returns how many spare records the list holds.
func (l *FreeList[P]) Len() int { return l.n }
