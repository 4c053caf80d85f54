package engine

// This file teaches the partitioned parallel executor to consume and
// produce cursors, so operators built on it pipeline end-to-end
// instead of materializing at partition boundaries. The shape is the
// classic Volcano exchange operator: a router goroutine pulls the
// input cursor (sequentially — pull is single-consumer by contract)
// and routes each tuple through a bounded channel to its partition's
// worker, which consumes its shard as a cursor while the router is
// still producing. Bounded channels give backpressure, so at any
// moment only O(workers × channel capacity) tuples sit between
// producer and consumers.
//
// Deadlock freedom: StreamPartitioned uses exactly one partition per
// worker, so every channel has a live consumer from the start — the
// router can always make progress once a channel drains, and workers
// always see their channel closed when the input is exhausted. (With
// more partitions than workers, a bounded channel for an unclaimed
// partition could fill while every worker waits for input the router
// cannot deliver.) The output-side helper, OrderedMerge, has no such
// constraint: its channels are drained by an independent consumer, so
// producers may outnumber workers freely.

import (
	"sync"

	"radiv/internal/exec"
	"radiv/internal/rel"
)

// Stop is a one-shot broadcast used to unblock producers when their
// consumer goes away early: producers send with SendOr against the
// stop channel, the abandoning side calls Stop. A nil *Stop is valid
// and means "never stops" (C returns nil, which blocks forever in a
// select, so SendOr degenerates to a plain send).
type Stop struct {
	once sync.Once
	ch   chan struct{}
}

// NewStop returns a fresh, unfired Stop.
func NewStop() *Stop { return &Stop{ch: make(chan struct{})} }

// C returns the channel closed when Stop fires.
func (s *Stop) C() <-chan struct{} {
	if s == nil {
		return nil
	}
	return s.ch
}

// Stop fires the broadcast. Idempotent and safe from any goroutine.
func (s *Stop) Stop() {
	if s != nil {
		s.once.Do(func() { close(s.ch) })
	}
}

// SendOr sends v on ch, or gives up when done is closed first,
// reporting whether the send happened. A nil done is a plain
// (blocking) send. This is the shape every bounded-channel producer
// in the exchanges uses, so an early consumer close — or a query
// abort — can never strand a producer on a full channel.
func SendOr[T any](ch chan<- T, v T, done <-chan struct{}) bool {
	if done == nil {
		ch <- v
		return true
	}
	select {
	case ch <- v:
		return true
	case <-done:
		return false
	}
}

// Cursor is the engine's pull-based tuple iterator. It is structurally
// identical to rel.NextCursor, so *rel.Cursor and every other
// stored-relation scan satisfy it without adaptation.
type Cursor interface {
	Next() (rel.Tuple, bool)
}

// ChanCursor adapts a channel to a Cursor: Next blocks until a tuple
// arrives or the channel closes.
type ChanCursor struct{ C <-chan rel.Tuple }

// Next implements Cursor.
func (c ChanCursor) Next() (rel.Tuple, bool) {
	t, ok := <-c.C
	return t, ok
}

// streamChanCap is the bounded-channel capacity of the exchange: large
// enough to amortize channel synchronization, small enough that the
// in-flight buffer stays a rounding error next to any build table.
const streamChanCap = 128

// StreamPartitioned consumes in on a router goroutine, assigns every
// tuple a partition with route (which must return a value in [0,
// parts) for the parts value returned; it is called on the router
// goroutine, so it may intern into shared dictionaries safely), and
// runs work(q, shard) for each partition concurrently on the worker
// pool, where shard yields exactly the tuples routed to q, in input
// order. It returns the number of partitions used — one per worker —
// after every worker has finished. With one worker it degenerates to
// work(0, in) on the calling goroutine: no routing, no channels, no
// goroutines.
func (e Executor) StreamPartitioned(in Cursor, route func(rel.Tuple) int, work func(q int, shard Cursor)) int {
	return e.StreamPartitionedGov(nil, in, route, work)
}

// StreamPartitionedGov is StreamPartitioned under a query governor
// (nil means ungoverned, with identical behavior). Two robustness
// properties hold in every mode:
//
//   - a work callback that returns before draining its shard no
//     longer strands the router: the worker drains and discards the
//     remainder of its channel after work returns, so the exchange
//     always runs to completion and joins every goroutine;
//   - governed, the router's sends select on the governor's Done
//     channel and a panicking worker aborts the query instead of
//     killing the process, so an abort (cancellation, budget trip,
//     injected fault) stops routing promptly, closes every channel,
//     and returns after all goroutines have joined — the caller
//     checks g.Err().
func (e Executor) StreamPartitionedGov(g *exec.Governor, in Cursor, route func(rel.Tuple) int, work func(q int, shard Cursor)) int {
	w := e.WorkerCount()
	if w <= 1 {
		work(0, in)
		return 1
	}
	chans := make([]chan rel.Tuple, w)
	for q := range chans {
		chans[q] = make(chan rel.Tuple, streamChanCap)
	}
	done := g.Done()
	var router sync.WaitGroup
	router.Add(1)
	go func() {
		defer router.Done()
		defer func() {
			if g != nil {
				g.AbortRecovered(recover())
			}
			for _, ch := range chans {
				close(ch)
			}
		}()
		for t, ok := in.Next(); ok; t, ok = in.Next() {
			if !SendOr(chans[route(t)], t, done) {
				return
			}
		}
	}()
	e.RunGoverned(g, w, func(q int) {
		defer func() {
			// Abort before draining, so the router stops routing the
			// moment a worker fails rather than after the full input.
			if g != nil {
				if r := recover(); r != nil {
					g.AbortRecovered(r)
				}
			}
			// Drain-on-return: an early-stopping consumer discards the
			// rest of its shard so the router can always finish. After
			// an abort the router exits on Done and closes the
			// channels, so this never blocks indefinitely.
			for range chans[q] {
			}
		}()
		work(q, ChanCursor{C: chans[q]})
	})
	router.Wait()
	// After an abort RunGoverned skips unclaimed partitions, so their
	// channels were never drained by a worker; the router has closed
	// every channel by now, so this sweep is finite.
	for _, ch := range chans {
		for range ch {
		}
	}
	return w
}

// StreamSharded is the shard-aware path of the exchange: when the
// input is already partitioned — one cursor per shard-local store,
// with the partition invariant (all tuples of a group in one shard)
// established at storage time — no router goroutine and no channels
// are needed. work(q, shards[q]) runs once per shard, spread over the
// worker pool; it returns after every shard has been processed, and
// reports the shard count for symmetry with StreamPartitioned. With
// one shard it degenerates to work(0, shards[0]) on the calling
// goroutine.
func (e Executor) StreamSharded(shards []Cursor, work func(q int, shard Cursor)) int {
	e.Run(len(shards), func(q int) { work(q, shards[q]) })
	return len(shards)
}

// StreamShardedGov is StreamSharded under a query governor: a
// panicking shard task aborts the query instead of killing the
// process and remaining shards are skipped. Callers check g.Err().
func (e Executor) StreamShardedGov(g *exec.Governor, shards []Cursor, work func(q int, shard Cursor)) int {
	e.RunGoverned(g, len(shards), func(q int) { work(q, shards[q]) })
	return len(shards)
}

// OrderedMerge returns a cursor that drains the given channels in
// slice order: all of channel 0 (until it closes), then channel 1, and
// so on. Producers fill their own channel concurrently and close it
// when done, so the consumer streams partition 0's results while later
// partitions are still computing — the cursor-producing side of the
// exchange. The cursor must be drained to exhaustion, or producers
// blocked on full channels leak; use OrderedMergeStop when the
// consumer may abandon the stream early.
func OrderedMerge(chans []chan rel.Tuple) Cursor {
	return &OrderedMergeCursor{chans: chans}
}

// OrderedMergeStop is OrderedMerge for abandonable consumers: the
// producers must send with SendOr against stop.C() and close their
// channels when done. Close fires the stop, then drains every
// channel to its close, so after Close returns no producer is
// blocked on a merge channel. Draining to exhaustion without calling
// Close is equally fine.
func OrderedMergeStop(chans []chan rel.Tuple, stop *Stop) *OrderedMergeCursor {
	return &OrderedMergeCursor{chans: chans, stop: stop}
}

// OrderedMergeCursor is the concrete ordered tuple merge: a Cursor
// with an early-close escape hatch (see OrderedMergeStop).
type OrderedMergeCursor struct {
	chans []chan rel.Tuple
	stop  *Stop
	i     int
}

// Next implements Cursor.
func (c *OrderedMergeCursor) Next() (rel.Tuple, bool) {
	for c.i < len(c.chans) {
		if t, ok := <-c.chans[c.i]; ok {
			return t, true
		}
		c.i++
	}
	return nil, false
}

// Close abandons the merge: it fires the stop so producers give up
// on blocked sends, then drains every channel to its close. Safe to
// call at any point, including after exhaustion; the cursor yields
// nothing afterwards.
func (c *OrderedMergeCursor) Close() {
	c.stop.Stop()
	for ; c.i < len(c.chans); c.i++ {
		for range c.chans[c.i] {
		}
	}
}
