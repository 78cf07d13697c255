package serve

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"embera/internal/monitor"
	"embera/internal/testwait"
)

func event(assembly string, seq uint64, component string) Event {
	return Event{
		Assembly: assembly,
		Seq:      seq,
		Window:   monitor.WindowRecord{Component: component, StartUS: int64(seq) * 1000, EndUS: int64(seq+1) * 1000},
	}
}

// TestBrokerSlowSubscriberContract is the slow-subscriber contract: a
// subscriber that never reads holds exactly one full queue — enqueued
// stops at the queue capacity, every further matching event is a counted
// drop — while a fast subscriber sees every event in order, and the broker
// retains nothing, which the heap ceiling asserts.
func TestBrokerSlowSubscriberContract(t *testing.T) {
	const (
		queueCap = 64
		total    = 20_000
	)
	// A fat component name makes unbounded retention visible: if the broker
	// (or the stalled queue) held all events, that alone would be
	// total × ~128 B ≈ 2.5 MB against a 1 MB ceiling.
	component := strings.Repeat("c", 128)

	b := NewBroker(queueCap)
	fast := b.Subscribe("")
	stalled := b.Subscribe("")

	var wg sync.WaitGroup
	wg.Add(1)
	var received atomic.Uint64
	var outOfOrder atomic.Bool
	go func() {
		defer wg.Done()
		var lastSeq uint64
		for ev := range fast.C() {
			if ev.Seq <= lastSeq {
				outOfOrder.Store(true)
			}
			lastSeq = ev.Seq
			if received.Add(1) == total {
				return
			}
		}
	}()

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)

	// Every blocking wait below has a deadline: a regression fails with a
	// goroutine dump instead of hanging the package.
	deadline := time.Now().Add(30 * time.Second)
	stuck := func(err error) {
		t.Fatalf("fast subscriber received %d of %d events: %v", received.Load(), total, err)
	}
	// Let the fast consumer drain before every publish, so its backlog
	// never reaches the queue capacity: the contract under test is the
	// stalled queue, not the fast reader's scheduling luck.
	drained := func() bool { return fast.Enqueued()-received.Load() < queueCap }
	for seq := uint64(1); seq <= total; seq++ {
		if err := testwait.Until(deadline, "publisher throttle", drained); err != nil {
			stuck(err)
		}
		b.Publish(event("a0", seq, component))
	}
	readerDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(readerDone)
	}()
	if err := testwait.For(readerDone, time.Until(deadline), "fast reader"); err != nil {
		stuck(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&m1)

	if outOfOrder.Load() {
		t.Fatal("fast subscriber saw events out of order")
	}
	if got := received.Load(); got != total {
		t.Fatalf("fast subscriber received %d of %d events", got, total)
	}
	if d := fast.Dropped(); d != 0 {
		t.Fatalf("fast subscriber dropped %d events", d)
	}
	if m := fast.Matched(); m != total {
		t.Fatalf("fast subscriber matched %d, want %d", m, total)
	}

	// Exact accounting for the stalled reader: the first queueCap events
	// enqueued, every other one dropped, nothing unaccounted.
	if got := stalled.Enqueued(); got != queueCap {
		t.Fatalf("stalled subscriber enqueued %d, want exactly the queue capacity %d", got, queueCap)
	}
	if got, want := stalled.Dropped(), uint64(total-queueCap); got != want {
		t.Fatalf("stalled subscriber dropped %d, want exactly %d", got, want)
	}
	if stalled.Matched() != stalled.Enqueued()+stalled.Dropped() {
		t.Fatalf("accounting leak: matched %d != enqueued %d + dropped %d",
			stalled.Matched(), stalled.Enqueued(), stalled.Dropped())
	}
	if got, want := b.Dropped(), uint64(total-queueCap); got != want {
		t.Fatalf("aggregate drops %d, want %d", got, want)
	}
	if got := b.Published(); got != total {
		t.Fatalf("published %d, want %d", got, total)
	}

	// Bounded memory: the live heap may hold the stalled queue (queueCap
	// events) and bookkeeping, never the published stream.
	if m1.HeapAlloc > m0.HeapAlloc && m1.HeapAlloc-m0.HeapAlloc > 1<<20 {
		t.Fatalf("heap grew %d bytes across %d published events — broker is retaining",
			m1.HeapAlloc-m0.HeapAlloc, total)
	}

	b.Unsubscribe(fast)
	b.Unsubscribe(stalled)
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers left after unsubscribe", n)
	}
}

// TestBrokerFilter: a filtered subscriber only matches its assembly; the
// firehose subscriber ("") matches everything.
func TestBrokerFilter(t *testing.T) {
	b := NewBroker(16)
	only := b.Subscribe("a1")
	all := b.Subscribe("")
	defer b.Unsubscribe(only)
	defer b.Unsubscribe(all)

	b.Publish(event("a0", 1, "x"))
	b.Publish(event("a1", 1, "x"))
	b.Publish(event("a0", 2, "x"))

	if got := only.Matched(); got != 1 {
		t.Fatalf("filtered subscriber matched %d, want 1", got)
	}
	if got := all.Matched(); got != 3 {
		t.Fatalf("firehose subscriber matched %d, want 3", got)
	}
	ev := <-only.C()
	if ev.Assembly != "a1" {
		t.Fatalf("filtered subscriber got assembly %q", ev.Assembly)
	}
}
