package native_test

import (
	"testing"
	"time"

	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/testwait"

	_ "embera/internal/mjpegapp"
	_ "embera/internal/pipelineapp"
)

const wallHorizonUS = int64(60 * 1e6)

// TestPipelineEndToEnd runs the full harness path — exp.Run with observer
// attachment and workload self-check — on the native platform.
func TestPipelineEndToEnd(t *testing.T) {
	run, err := exp.RunNamed("native", "pipeline", exp.Options{
		Options: platform.Options{Scale: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Instance.Units() != 500 {
		t.Errorf("units = %d, want 500", run.Instance.Units())
	}
	if run.MakespanUS <= 0 {
		t.Errorf("makespan = %d, want positive wall time", run.MakespanUS)
	}
	if run.Kernel != nil {
		t.Error("native run reports a simulation kernel")
	}
	for name, rep := range run.Reports {
		if rep.OS.ExecTimeUS < 0 {
			t.Errorf("%s: negative exec time %d", name, rep.OS.ExecTimeUS)
		}
		if rep.OS.MemBytes <= 0 {
			t.Errorf("%s: no memory reported", name)
		}
		if rep.OS.Running {
			t.Errorf("%s: still running after quiescence", name)
		}
		if rep.App.State != "done" {
			t.Errorf("%s: state %q, want done", name, rep.App.State)
		}
	}
}

// TestChecksumMatchesSimulatedPlatform is the portability core of the
// binding: the same workload at the same scale must produce the same
// checksum on real goroutines as on the virtual-time simulator.
func TestChecksumMatchesSimulatedPlatform(t *testing.T) {
	for _, wn := range []string{"pipeline", "mjpeg"} {
		nat, err := exp.RunNamed("native", wn, exp.Options{Options: platform.Options{Scale: 6}})
		if err != nil {
			t.Fatalf("native × %s: %v", wn, err)
		}
		sim, err := exp.RunNamed("smp", wn, exp.Options{Options: platform.Options{Scale: 6}})
		if err != nil {
			t.Fatalf("smp × %s: %v", wn, err)
		}
		if nat.Instance.Checksum() != sim.Instance.Checksum() {
			t.Errorf("%s checksum: native %016x != smp %016x",
				wn, nat.Instance.Checksum(), sim.Instance.Checksum())
		}
		if nat.Instance.Units() != sim.Instance.Units() {
			t.Errorf("%s units: native %d != smp %d",
				wn, nat.Instance.Units(), sim.Instance.Units())
		}
	}
}

// TestMailboxBackpressure: a byte-bounded native mailbox must block the
// producer rather than buffer beyond its capacity, and the observation
// interface must see the bounded depth.
func TestMailboxBackpressure(t *testing.T) {
	m, a := platform.MustGet("native").New("backpressure")
	const msgBytes = 1024
	const capBytes = 4 * msgBytes // at most 4 messages in flight

	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 200; i++ {
			ctx.Send("out", i, msgBytes)
		}
	}).MustAddRequired("out")
	maxDepth := 0
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			ctx.SleepUS(100) // slow consumer: the producer must outrun it
			if d := ctx.Component().InterfaceList()[1].Depth; d > maxDepth {
				maxDepth = d
			}
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", capBytes)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if maxDepth == 0 {
		t.Error("consumer never observed a queued message")
	}
	if maxDepth > 4 {
		t.Errorf("observed depth %d exceeds the %d-message bound", maxDepth, capBytes/msgBytes)
	}
}

// TestTerminateUnblocksSleepingComponent: §3.1 termination on a component
// stuck in a sleep loop.
func TestTerminateUnblocksSleepingComponent(t *testing.T) {
	m, a := platform.MustGet("native").New("kill-sleep")
	spin := a.MustNewComponent("spin", func(ctx *core.Ctx) {
		for {
			ctx.SleepUS(1000)
		}
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	if err := a.Terminate(spin); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if !a.Done() {
		t.Fatal("application not done after termination")
	}
	rep := spin.Snapshot(core.LevelOS)
	if rep.OS.Running {
		t.Error("killed component still reported running")
	}
}

// TestTerminateUnblocksBlockedPrimitives: termination must unwind flows
// parked inside a mailbox receive and a full-mailbox send.
func TestTerminateUnblocksBlockedPrimitives(t *testing.T) {
	m, a := platform.MustGet("native").New("kill-blocked")
	// stuck receives on an inbox that never gets a producer.
	stuck := a.MustNewComponent("stuck", func(ctx *core.Ctx) {
		ctx.Receive("in")
	}).MustAddProvided("in", 1<<16)
	// jam fills a one-message mailbox whose consumer never drains.
	jam := a.MustNewComponent("jam", func(ctx *core.Ctx) {
		for i := 0; i < 10; i++ {
			if !ctx.Send("out", i, 512) {
				return
			}
		}
	}).MustAddRequired("out")
	idle := a.MustNewComponent("idle", func(ctx *core.Ctx) {
		ctx.Receive("in") // take one message, then hang
		for {
			ctx.SleepUS(1000)
		}
	}).MustAddProvided("in", 512)
	a.MustConnect(jam, "out", idle, "in")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond)
	for _, c := range []*core.Component{stuck, jam, idle} {
		if err := a.Terminate(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if !a.Done() {
		t.Fatal("blocked components survived termination")
	}
}

// TestObserverQueriesLiveApplication drives the §3.3 observation path —
// request/report through the observation interfaces — while the components
// genuinely run in parallel.
func TestObserverQueriesLiveApplication(t *testing.T) {
	m, a := platform.MustGet("native").New("live-obs")
	// The producer holds after its first send until the prober has queried,
	// so the mid-run query sees a live count that cannot be the final one.
	firstSent, queried := make(chan struct{}), make(chan struct{})
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 50; i++ {
			ctx.SleepUS(200)
			ctx.Send("out", i, 256)
			if i == 0 {
				close(firstSent)
				<-queried
			}
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	obs, err := a.AttachObserver()
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	var midSends uint64
	var qErr error
	a.SpawnDriver("prober", func(f core.Flow) {
		if err := testwait.For(firstSent, 10*time.Second, "producer never sent"); err != nil {
			close(queried)
			qErr = err
			return
		}
		reports, err := obs.QueryAll(f, core.LevelAll)
		close(queried)
		if err != nil {
			qErr = err
			return
		}
		midSends = reports["prod"].App.SendOps
		a.AwaitQuiescence(f)
	})
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if qErr != nil {
		t.Fatal(qErr)
	}
	if midSends == 0 || midSends >= 50 {
		t.Errorf("mid-run query saw %d sends, want a live count between 1 and 49", midSends)
	}
	final := prod.Snapshot(core.LevelAll)
	if final.App.SendOps != 50 {
		t.Errorf("final send count = %d, want 50", final.App.SendOps)
	}
}

// TestMonitorStreamsFromNative: the streaming observation pipeline must
// work unchanged over the wall-clock SampleAll path.
func TestMonitorStreamsFromNative(t *testing.T) {
	m, a := platform.MustGet("native").New("native-mon")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < 100; i++ {
			ctx.SleepUS(100) // stretch the run to ~10 ms so samplers fire
			ctx.Send("out", i, 512)
		}
	}).MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	}).MustAddProvided("in", 1<<16)
	a.MustConnect(prod, "out", cons, "in")
	mon, err := monitor.New(a, monitor.Config{
		Levels: []monitor.LevelPeriod{
			{Level: core.LevelApplication, PeriodUS: 500},
			{Level: core.LevelOS, PeriodUS: 1000},
		},
		WindowUS: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(wallHorizonUS); err != nil {
		t.Fatal(err)
	}
	if mon.Samples() == 0 {
		t.Fatal("no samples collected from the native platform")
	}
	totals := mon.Totals()
	if len(totals) == 0 {
		t.Fatal("no aggregation windows closed")
	}
	var sawMem bool
	for _, w := range totals {
		if w.MemHigh > 0 {
			sawMem = true
		}
	}
	if !sawMem {
		t.Error("OS-level sampling never captured memory")
	}
}

// TestWallClock: the binding's clock must advance with real time and stamp
// the middleware instrumentation.
func TestWallClock(t *testing.T) {
	run, err := exp.RunNamed("native", "pipeline", exp.Options{
		Options: platform.Options{Scale: 50},
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.MakespanUS <= 0 {
		t.Fatalf("wall makespan = %d", run.MakespanUS)
	}
	if now := run.Machine.NowUS(); now < run.MakespanUS {
		t.Errorf("clock went backwards: now %d < makespan %d", now, run.MakespanUS)
	}
}

// TestIndependentMachines: two native machines must not share state.
func TestIndependentMachines(t *testing.T) {
	p := platform.MustGet("native")
	m1, a1 := p.New("one")
	m2, a2 := p.New("two")
	if m1 == m2 || a1 == a2 {
		t.Fatal("native platform returned shared state")
	}
	for _, pair := range []struct {
		m platform.Machine
		a *core.App
	}{{m1, a1}, {m2, a2}} {
		pair.a.MustNewComponent("c", func(ctx *core.Ctx) { ctx.Compute(1) })
		if err := pair.a.Start(); err != nil {
			t.Fatal(err)
		}
		if err := pair.m.Run(wallHorizonUS); err != nil {
			t.Fatal(err)
		}
		if !pair.a.Done() {
			t.Fatal("machine did not run its app")
		}
	}
}
