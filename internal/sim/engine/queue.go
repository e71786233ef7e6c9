package engine

import "slices"

// EventQueue is the engine's priority queue of node wake events over node
// IDs 0..n-1, ordered by (slot, node). Every wake in the engine is an
// integer slot below Config.Slots, so instead of a comparison heap it is a
// calendar: one intrusive doubly linked list of nodes per slot (head[slot],
// next/prev per node ID) and a cursor that only moves forward past empty
// buckets, except when a wake is set below it. Each node has at most one
// scheduled wake — rescheduling moves it — so Set and cancel are O(1) list
// splices and PopMin is amortized O(1) plus the cost of sorting a bucket
// once. Memory is 16 B per node plus a 4 B bucket head per slot up to the
// largest slot ever set (plus the slice's growth slack), and no
// operation allocates once the buckets exist.
//
// The node tie-break is load-bearing, not cosmetic: popping all events of
// one slot yields strictly ascending node IDs, which is what lets the
// sharded event driver apply the receiver's per-slot capacity cap to "the
// first k transmitters in global node order" — the same order the serial
// reference driver scans — and stay bit-identical to it. Lists are built
// unsorted (a Set pushes at the front); the bucket under the cursor is
// merge-sorted in place the first time it is popped, and a Set into that
// bucket marks it unsorted again. FuzzEventQueue pins this ordering
// against a sort-based model.
type EventQueue struct {
	head   []int32  // slot -> first node in its bucket, -1 when empty
	node   []qentry // node ID -> its wake and bucket links
	n      int      // scheduled events
	cur    int64    // no scheduled slot lies below cur
	sorted int64    // the bucket known to be in ascending node order, -1 none
}

// qentry is one node's queue state. The fields share one 16 B record
// rather than three parallel arrays because a bucket walk is a chain of
// dependent loads through nodes last touched many slots ago: one cache
// miss per node instead of three.
type qentry struct {
	slot int64 // scheduled wake slot, -1 when not scheduled
	next int32 // next node in the bucket, -1 at the tail
	prev int32 // previous node in the bucket, -1 at the head
}

// NewEventQueue returns an empty queue over node IDs [0, n).
func NewEventQueue(n int) *EventQueue {
	q := &EventQueue{node: make([]qentry, n), sorted: -1}
	for i := range q.node {
		q.node[i].slot = -1
	}
	return q
}

// Len returns the number of scheduled events.
func (q *EventQueue) Len() int { return q.n }

// MinSlot returns the earliest scheduled slot, -1 when empty.
func (q *EventQueue) MinSlot() int64 {
	if q.n == 0 {
		return -1
	}
	for q.head[q.cur] < 0 {
		q.cur++
	}
	return q.cur
}

// Set schedules node id's wake at slot, replacing any existing wake.
// slot < 0 cancels the node's wake.
func (q *EventQueue) Set(id int32, slot int64) {
	e := &q.node[id]
	if e.slot == slot {
		return
	}
	if e.slot >= 0 {
		q.unlink(id)
	}
	e.slot = slot
	if slot < 0 {
		return
	}
	if slot >= int64(len(q.head)) {
		q.grow(slot)
	}
	h := q.head[slot]
	e.next, e.prev = h, -1
	if h >= 0 {
		q.node[h].prev = id
	}
	q.head[slot] = id
	if q.n == 0 || slot < q.cur {
		q.cur = slot
	}
	q.n++
	if slot == q.sorted {
		q.sorted = -1
	}
}

// PopMin removes and returns the earliest event; ties pop in ascending
// node order. It panics on an empty queue: callers gate on Len/MinSlot.
func (q *EventQueue) PopMin() (id int32, slot int64) {
	slot = q.MinSlot()
	if slot < 0 {
		panic("engine: PopMin on an empty EventQueue")
	}
	if q.sorted != slot {
		q.sortBucket(slot)
	}
	id = q.head[slot]
	q.unlink(id)
	q.node[id].slot = -1
	return id, slot
}

// unlink splices node id out of its bucket.
func (q *EventQueue) unlink(id int32) {
	e := &q.node[id]
	if e.prev >= 0 {
		q.node[e.prev].next = e.next
	} else {
		q.head[e.slot] = e.next
	}
	if e.next >= 0 {
		q.node[e.next].prev = e.prev
	}
	q.n--
}

// grow extends head to cover slot with empty buckets; slices.Grow's
// geometric capacity growth amortizes the copies.
func (q *EventQueue) grow(slot int64) {
	old := len(q.head)
	q.head = slices.Grow(q.head, int(slot)+1-old)[:slot+1]
	for i := old; i < len(q.head); i++ {
		q.head[i] = -1
	}
}

// sortBucket puts bucket s into ascending node order with a bottom-up
// merge sort over the intrusive links (Tatham's list sort): O(k log k) for
// a bucket of k nodes, with no scratch memory. prev links are rebuilt as
// the merged runs are appended.
func (q *EventQueue) sortBucket(s int64) {
	nd := q.node
	list := q.head[s]
	for width := 1; ; width *= 2 {
		p := list
		list = -1
		tail := int32(-1)
		merges := 0
		for p >= 0 {
			merges++
			// Run a is width nodes from p, run b the (up to) width after.
			b, asize := p, 0
			for asize < width && b >= 0 {
				asize++
				b = nd[b].next
			}
			bsize := width
			for asize > 0 || (bsize > 0 && b >= 0) {
				var e int32
				if asize > 0 && (bsize == 0 || b < 0 || p < b) {
					e, p = p, nd[p].next
					asize--
				} else {
					e, b = b, nd[b].next
					bsize--
				}
				if tail >= 0 {
					nd[tail].next = e
				} else {
					list = e
				}
				nd[e].prev = tail
				tail = e
			}
			p = b
		}
		nd[tail].next = -1
		if merges <= 1 {
			break
		}
	}
	q.head[s] = list
	q.sorted = s
}
