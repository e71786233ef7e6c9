package engine

import (
	"math/rand/v2"
	"sort"
	"testing"
)

// modelQueue is the sort-based reference the queue is checked against: a
// plain map of scheduled wakes, popped by scanning for the (slot, id)
// minimum.
type modelQueue map[int32]int64

func (m modelQueue) minEntry() (int32, int64, bool) {
	best, bestSlot, found := int32(0), int64(0), false
	for id, s := range m {
		if !found || s < bestSlot || (s == bestSlot && id < best) {
			best, bestSlot, found = id, s, true
		}
	}
	return best, bestSlot, found
}

// checkAgainstModel drains both queues side by side and fails on the
// first divergence in length, min slot, or pop order.
func checkAgainstModel(t *testing.T, q *EventQueue, model modelQueue) {
	t.Helper()
	if q.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", q.Len(), len(model))
	}
	for len(model) > 0 {
		wantID, wantSlot, _ := model.minEntry()
		if ms := q.MinSlot(); ms != wantSlot {
			t.Fatalf("MinSlot = %d, want %d", ms, wantSlot)
		}
		id, slot := q.PopMin()
		if id != wantID || slot != wantSlot {
			t.Fatalf("PopMin = (%d,%d), want (%d,%d)", id, slot, wantID, wantSlot)
		}
		delete(model, id)
	}
	if q.Len() != 0 || q.MinSlot() != -1 {
		t.Fatalf("drained queue: Len=%d MinSlot=%d", q.Len(), q.MinSlot())
	}
}

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue(16)
	model := modelQueue{}
	// Equal slots with interleaved insert order: pops must come back in
	// ascending node order regardless.
	for _, id := range []int32{9, 3, 12, 0, 7} {
		q.Set(id, 5)
		model[id] = 5
	}
	q.Set(4, 2)
	model[4] = 2
	// Reschedule one equal-slot entry forward and one backward.
	q.Set(12, 1)
	model[12] = 1
	q.Set(3, 9)
	model[3] = 9
	// Cancel an entry outright, and cancel a missing one (no-op).
	q.Set(7, -1)
	delete(model, 7)
	q.Set(15, -1)
	checkAgainstModel(t, q, model)
}

func TestEventQueueRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for round := 0; round < 50; round++ {
		n := 1 + rng.IntN(32)
		q := NewEventQueue(n)
		model := modelQueue{}
		for op := 0; op < 200; op++ {
			id := int32(rng.IntN(n))
			switch rng.IntN(4) {
			case 0, 1: // schedule / reschedule
				s := int64(rng.IntN(50))
				q.Set(id, s)
				model[id] = s
			case 2: // cancel
				q.Set(id, -1)
				delete(model, id)
			default: // pop
				if len(model) == 0 {
					continue
				}
				wantID, wantSlot, _ := model.minEntry()
				gotID, gotSlot := q.PopMin()
				if gotID != wantID || gotSlot != wantSlot {
					t.Fatalf("round %d op %d: PopMin = (%d,%d), want (%d,%d)",
						round, op, gotID, gotSlot, wantID, wantSlot)
				}
				delete(model, wantID)
			}
			if q.Len() != len(model) {
				t.Fatalf("round %d op %d: Len = %d, model %d", round, op, q.Len(), len(model))
			}
		}
		checkAgainstModel(t, q, model)
	}
}

// FuzzEventQueue feeds arbitrary push/reschedule/cancel/pop programs to
// the heap and cross-checks every observable against the sort-based
// model. The property under fuzz is total: ordering by (slot, node),
// equal-slot tie-break stability, reschedule correctness in both
// directions, and Len/MinSlot consistency after every operation.
func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 5, 3, 3})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 3})
	f.Add([]byte{0, 7, 200, 1, 7, 3, 2, 7, 3, 3, 3})
	f.Fuzz(func(t *testing.T, program []byte) {
		const n = 24
		q := NewEventQueue(n)
		model := modelQueue{}
		for i := 0; i+2 < len(program); i += 3 {
			op, id := program[i]%4, int32(program[i+1]%n)
			slot := int64(program[i+2])
			switch op {
			case 0, 1:
				q.Set(id, slot)
				model[id] = slot
			case 2:
				q.Set(id, -1)
				delete(model, id)
			default:
				if len(model) == 0 {
					if q.Len() != 0 {
						t.Fatalf("model empty, queue has %d", q.Len())
					}
					continue
				}
				wantID, wantSlot, _ := model.minEntry()
				gotID, gotSlot := q.PopMin()
				if gotID != wantID || gotSlot != wantSlot {
					t.Fatalf("PopMin = (%d,%d), want (%d,%d)", gotID, gotSlot, wantID, wantSlot)
				}
				delete(model, wantID)
			}
			if q.Len() != len(model) {
				t.Fatalf("Len = %d, model %d", q.Len(), len(model))
			}
			wantMin := int64(-1)
			if _, s, ok := model.minEntry(); ok {
				wantMin = s
			}
			if got := q.MinSlot(); got != wantMin {
				t.Fatalf("MinSlot = %d, want %d", got, wantMin)
			}
		}
		// Drain: the survivors must come out in exact (slot, id) order.
		type entry struct {
			id   int32
			slot int64
		}
		var want []entry
		for id, s := range model {
			want = append(want, entry{id, s})
		}
		sort.Slice(want, func(a, b int) bool {
			return want[a].slot < want[b].slot ||
				(want[a].slot == want[b].slot && want[a].id < want[b].id)
		})
		for _, w := range want {
			id, slot := q.PopMin()
			if id != w.id || slot != w.slot {
				t.Fatalf("drain: got (%d,%d), want (%d,%d)", id, slot, w.id, w.slot)
			}
		}
	})
}

// setBoth schedules (or, with slot < 0, cancels) id in the queue and the
// model alike.
func setBoth(q *EventQueue, model modelQueue, id int32, slot int64) {
	q.Set(id, slot)
	if slot < 0 {
		delete(model, id)
	} else {
		model[id] = slot
	}
}

// popBoth pops the queue's minimum and checks it against the model's.
func popBoth(t *testing.T, q *EventQueue, model modelQueue) {
	t.Helper()
	wantID, wantSlot, _ := model.minEntry()
	if id, slot := q.PopMin(); id != wantID || slot != wantSlot {
		t.Fatalf("PopMin = (%d,%d), want (%d,%d)", id, slot, wantID, wantSlot)
	}
	delete(model, wantID)
}

// TestEventQueueDrainingBucket sets wakes into the bucket PopMin is
// draining: it was sorted on its first pop, so a new entry below, between
// and above the survivors must still come out in ascending node order.
func TestEventQueueDrainingBucket(t *testing.T) {
	q := NewEventQueue(32)
	model := modelQueue{}
	for _, id := range []int32{20, 4, 12, 28, 8} {
		setBoth(q, model, id, 3)
	}
	popBoth(t, q, model) // sorts slot 3, pops 4
	popBoth(t, q, model) // 8
	for _, id := range []int32{30, 1, 10, 24} {
		setBoth(q, model, id, 3)
	}
	popBoth(t, q, model) // 1, which now precedes the sorted survivors
	setBoth(q, model, 11, 3)
	setBoth(q, model, 0, 4)
	checkAgainstModel(t, q, model)
}

// TestEventQueueSetBelowCursor moves the cursor forward with pops, then
// schedules wakes behind it: MinSlot and PopMin must go back for them.
func TestEventQueueSetBelowCursor(t *testing.T) {
	q := NewEventQueue(16)
	model := modelQueue{}
	setBoth(q, model, 1, 10)
	setBoth(q, model, 2, 40)
	setBoth(q, model, 3, 40)
	popBoth(t, q, model)
	if got := q.MinSlot(); got != 40 {
		t.Fatalf("MinSlot = %d, want 40", got)
	}
	popBoth(t, q, model) // the cursor now sits on 40
	setBoth(q, model, 5, 7)
	setBoth(q, model, 4, 39)
	setBoth(q, model, 6, 0)
	checkAgainstModel(t, q, model)

	// An emptied queue restarts wherever the next wake lands.
	setBoth(q, model, 9, 100)
	setBoth(q, model, 8, 2)
	checkAgainstModel(t, q, model)
}

// TestEventQueueCancelWithinBucket cancels the head, a middle entry and
// the tail of one bucket, both while it is in insertion order and after a
// pop has sorted it, and moves one entry to another slot.
func TestEventQueueCancelWithinBucket(t *testing.T) {
	for _, sortFirst := range []bool{false, true} {
		q := NewEventQueue(16)
		model := modelQueue{}
		for id := int32(0); id < 9; id++ {
			setBoth(q, model, (id*5)%9, 2) // insertion order 0 5 1 6 2 7 3 8 4
		}
		if sortFirst {
			setBoth(q, model, 15, 2)
			popBoth(t, q, model) // sorts slot 2, pops 0
		}
		// The list head is the last insertion (4) or, once sorted, the
		// smallest survivor (1); the tail is the first insertion (0) or the
		// largest survivor (15).
		for _, id := range []int32{4, 1, 7, 0, 15} {
			setBoth(q, model, id, -1)
		}
		setBoth(q, model, 6, 1) // move a middle entry to an earlier slot
		if q.Len() != len(model) {
			t.Fatalf("sorted=%v: Len = %d, model has %d", sortFirst, q.Len(), len(model))
		}
		checkAgainstModel(t, q, model)
	}
}

// TestEventQueueFarApart schedules wakes a million slots apart: the
// cursor must walk the empty buckets between them and the queue must end
// empty.
func TestEventQueueFarApart(t *testing.T) {
	q := NewEventQueue(4)
	model := modelQueue{}
	setBoth(q, model, 3, 1<<20)
	setBoth(q, model, 1, 0)
	setBoth(q, model, 2, 1<<20)
	checkAgainstModel(t, q, model)
}

// queueRound is one round of the queue benchmark: Set every ID to its
// slot, then PopMin until empty.
func queueRound(q *EventQueue, slots []int64) {
	for i, s := range slots {
		q.Set(int32(i), s)
	}
	for q.Len() > 0 {
		q.PopMin()
	}
}

// queueBenchSlots draws n wake slots in [0, 4096), the shape perfbench's
// engine.queue_op_ns times.
func queueBenchSlots(n int) []int64 {
	rng := rand.New(rand.NewPCG(7, 0x9E))
	slots := make([]int64, n)
	for i := range slots {
		slots[i] = rng.Int64N(4096)
	}
	return slots
}

// TestEventQueueZeroAlloc pins that, once a round has grown the buckets,
// Set and PopMin never allocate.
func TestEventQueueZeroAlloc(t *testing.T) {
	slots := queueBenchSlots(1 << 12)
	q := NewEventQueue(len(slots))
	queueRound(q, slots)
	if a := testing.AllocsPerRun(5, func() { queueRound(q, slots) }); a != 0 {
		t.Fatalf("a warm round allocated %.1f times", a)
	}
}

// BenchmarkEventQueue is the in-package twin of perfbench's
// engine.queue_op_ns: Set then PopMin over every ID, wakes uniform in
// [0, 4096). queue_op_ns is the mean cost of one Set or PopMin.
func BenchmarkEventQueue(b *testing.B) {
	slots := queueBenchSlots(1 << 16)
	q := NewEventQueue(len(slots))
	queueRound(q, slots) // warm-up: grows the buckets
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queueRound(q, slots)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*len(slots)*b.N), "queue_op_ns")
	if a := testing.AllocsPerRun(1, func() { queueRound(q, slots) }); a != 0 {
		b.Fatalf("a warm round allocated %.1f times", a)
	}
}
