package sim

import (
	"testing"
)

func TestKernelStartsAtZero(t *testing.T) {
	k := NewKernel()
	if k.Now() != 0 {
		t.Fatalf("new kernel time = %d, want 0", k.Now())
	}
	if k.Pending() != 0 || k.Live() != 0 {
		t.Fatalf("new kernel not empty: pending=%d live=%d", k.Pending(), k.Live())
	}
}

func TestAdvanceMovesClock(t *testing.T) {
	k := NewKernel()
	var seen []Time
	k.Spawn("p", func(p *Proc) {
		seen = append(seen, p.Now())
		p.Advance(10 * Microsecond)
		seen = append(seen, p.Now())
		p.Advance(5 * Microsecond)
		seen = append(seen, p.Now())
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, Time(10 * Microsecond), Time(15 * Microsecond)}
	for i := range want {
		if seen[i] != want[i] {
			t.Errorf("time[%d] = %d, want %d", i, seen[i], want[i])
		}
	}
}

func TestAdvanceZeroYields(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Advance(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// a yields at t=0, so b's start (scheduled earlier than a's resume? no:
	// a starts first, yields; b starts; a resumes).
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative Advance did not panic")
			}
		}()
		p.Advance(-1)
	})
	func() {
		defer func() { recover() }() // process panic propagates through Run
		_ = k.Run()
	}()
}

func TestEventOrderingFIFOAtSameInstant(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Duration(7), func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events out of FIFO order: %v", order)
		}
	}
}

func TestEventOrderingByTime(t *testing.T) {
	k := NewKernel()
	var order []int
	delays := []Duration{30, 10, 20, 5, 25}
	for i, d := range delays {
		i := i
		k.At(d, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 1, 2, 4, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Error("negative At delay did not panic")
		}
	}()
	k.At(-1, func() {})
}

func TestRunUntilStopsEarly(t *testing.T) {
	k := NewKernel()
	fired := 0
	k.At(10, func() { fired++ })
	k.At(20, func() { fired++ })
	if err := k.RunUntil(15); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d, want 1", fired)
	}
	if k.Now() != 15 {
		t.Errorf("clock = %d, want 15", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "never", 0)
	k.Spawn("stuck", func(p *Proc) {
		q.Get(p) // nobody ever puts
	})
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run error = %v, want *DeadlockError", err)
	}
	if len(de.Parked) != 1 {
		t.Fatalf("parked = %v, want one entry", de.Parked)
	}
}

func TestJoinWaitsForTermination(t *testing.T) {
	k := NewKernel()
	var childDoneAt, joinedAt Time
	child := k.Spawn("child", func(p *Proc) {
		p.Advance(100)
		childDoneAt = p.Now()
	})
	k.Spawn("parent", func(p *Proc) {
		p.Join(child)
		joinedAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if joinedAt < childDoneAt {
		t.Errorf("joined at %d before child done at %d", joinedAt, childDoneAt)
	}
}

func TestJoinFinishedProcReturnsImmediately(t *testing.T) {
	k := NewKernel()
	child := k.Spawn("child", func(p *Proc) {})
	k.SpawnAt(50, "parent", func(p *Proc) {
		if child.State() != StateDone {
			t.Error("child should be done at t=50")
		}
		p.Join(child)
		if p.Now() != 50 {
			t.Errorf("join of finished proc advanced time to %d", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestKillUnblocksAndTerminates(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "q", 0)
	victim := k.Spawn("victim", func(p *Proc) {
		q.Get(p)
		t.Error("victim resumed past Get after kill")
	})
	k.SpawnAt(10, "killer", func(p *Proc) {
		k.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if victim.State() != StateDone {
		t.Errorf("victim state = %v, want done", victim.State())
	}
}

func TestKillDoneProcIsNoop(t *testing.T) {
	k := NewKernel()
	p := k.Spawn("p", func(p *Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Kill(p) // must not panic
}

func TestSpawnAtDelaysStart(t *testing.T) {
	k := NewKernel()
	var startedAt Time = -1
	k.SpawnAt(42, "late", func(p *Proc) { startedAt = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if startedAt != 42 {
		t.Errorf("started at %d, want 42", startedAt)
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel()
	k.Spawn("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("process panic did not propagate out of Run")
		}
	}()
	_ = k.Run()
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two identical runs must produce the identical event order.
	run := func() []string {
		k := NewKernel()
		q := NewQueue[string](k, "q", 0)
		var log []string
		for i := 0; i < 5; i++ {
			name := string(rune('a' + i))
			k.Spawn("prod-"+name, func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Advance(Duration(10 + j))
					q.Put(p, name)
				}
			})
		}
		k.Spawn("cons", func(p *Proc) {
			for i := 0; i < 15; i++ {
				v, _ := q.Get(p)
				log = append(log, v)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if len(a) != 15 || len(b) != 15 {
		t.Fatalf("lengths %d, %d, want 15", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, a, b)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{
		StateNew: "new", StateRunning: "running", StateParked: "parked",
		StateReady: "ready", StateDone: "done", State(99): "state(99)",
	} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestDurationString(t *testing.T) {
	cases := map[Duration]string{
		500:             "500ns",
		3 * Microsecond: "3.000µs",
		2 * Millisecond: "2.000ms",
		5 * Second:      "5.000s",
	}
	for d, want := range cases {
		if got := d.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(d), got, want)
		}
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Microsecond
	if d.Microseconds() != 1500 {
		t.Errorf("Microseconds = %v", d.Microseconds())
	}
	if d.Milliseconds() != 1.5 {
		t.Errorf("Milliseconds = %v", d.Milliseconds())
	}
	if (3 * Second).Seconds() != 3 {
		t.Errorf("Seconds = %v", (3 * Second).Seconds())
	}
}

func TestEventRecyclingPreservesOrder(t *testing.T) {
	// Interleave dispatch with rescheduling so recycled event structs are
	// reused while others are still queued: ordering must stay (time, seq).
	k := NewKernel()
	var got []int
	for round := 0; round < 3; round++ {
		round := round
		k.At(Duration(round)*Microsecond, func() {
			got = append(got, round*10)
			for i := 0; i < 4; i++ {
				i := i
				k.At(Duration(i%2)*Nanosecond, func() {
					got = append(got, round*10+i+1)
				})
			}
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{
		0, 1, 3, 2, 4, // round 0: delay-0 events FIFO, then delay-1 FIFO
		10, 11, 13, 12, 14,
		20, 21, 23, 22, 24,
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", got, want)
		}
	}
}

// TestShutdownUnwindsParkedDaemons: after a completed run, daemons parked
// on a queue nobody will fill again still hold their goroutines. Shutdown
// must unwind every one of them — running their deferred cleanup — drop a
// process that never started, and leave the clock readable.
func TestShutdownUnwindsParkedDaemons(t *testing.T) {
	k := NewKernel()
	q := NewQueue[int](k, "idle", 0)
	exited := 0
	for i := 0; i < 3; i++ {
		p := k.Spawn("daemon", func(p *Proc) {
			defer func() { exited++ }()
			q.Get(p)
		})
		p.SetDaemon(true)
	}
	k.Spawn("worker", func(p *Proc) { p.Advance(5 * Microsecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.SpawnAt(Second, "never", func(p *Proc) { t.Error("unstarted process ran") })
	if k.Live() != 4 {
		t.Fatalf("live before shutdown = %d, want 3 parked daemons + 1 unstarted", k.Live())
	}
	k.Shutdown()
	if exited != 3 || k.Live() != 0 || k.Pending() != 0 {
		t.Fatalf("after shutdown: %d daemons unwound, live=%d pending=%d", exited, k.Live(), k.Pending())
	}
	if k.Now() != Time(5*Microsecond) {
		t.Fatalf("clock after shutdown = %d", k.Now())
	}
}
