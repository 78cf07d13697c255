package main

import (
	"fmt"
	"time"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/mjpeg"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/serve"
	"embera/internal/sim"
	"embera/internal/wire"
)

// wireKinds are the payload shapes the wire probes encode and decode.
var wireKinds = []string{"scalar", "block_group", "pixel_group", "windows"}

// probeMin is the shortest batch a probe times; batches grow until one
// lasts at least this long.
const probeMin = 20 * time.Millisecond

// measure times op(n), which must perform n operations, at a batch size
// lasting at least probeMin, three times, and returns the median cost per
// operation.
func measure(op func(n int)) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	n := 1
	for {
		t := time.Now()
		op(n)
		d := time.Since(t)
		if d >= probeMin || n >= 1<<30 {
			break
		}
		n *= 2
	}
	var ns, al, by []float64
	for i := 0; i < 3; i++ {
		m0, b0 := allocCounts()
		t := time.Now()
		op(n)
		d := time.Since(t)
		m1, b1 := allocCounts()
		ns = append(ns, float64(d.Nanoseconds())/float64(n))
		al = append(al, float64(m1-m0)/float64(n))
		by = append(by, float64(b1-b0)/float64(n))
	}
	return median(ns), median(al), median(by)
}

// probeSet collects probe results by per-layer metric name.
type probeSet map[string]metric

func (pr probeSet) set(name string, v float64) {
	pr[name] = metric{v, layerUnits[name]}
}

// benchPolicies is the feedback policy set the served workload installs
// and the controller probe evaluates: one rule that fires now and then
// with a no-op action (re-setting the window the run already uses), one
// that is evaluated on every window and never fires.
func benchPolicies(windowUS int64) []ctl.Policy {
	return []ctl.Policy{
		{Name: "keep-window", Component: "Sink", Metric: ctl.MetricRecvRate, Op: ">=", Threshold: 0,
			CooldownWindows: 100, Action: ctl.Action{Type: ctl.ActSetWindow, WindowUS: windowUS}},
		{Name: "sink-flood", Component: "Sink", Metric: ctl.MetricDepthHigh, Op: ">", Threshold: 1e9,
			Action: ctl.Action{Type: ctl.ActPause}},
	}
}

// runProbes times the per-operation costs of each layer's public
// functions on the workload's own shapes: its assembly (built on its
// platform, never run), its component count, its first input frame.
func runProbes(platformName, workloadName string, opts platform.Options, samplesPerWindow int) (probeSet, error) {
	pr := probeSet{}
	p, err := platform.Get(platformName)
	if err != nil {
		return nil, err
	}
	w, err := platform.GetWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	_, a := p.New("perfbench-probe")
	if _, err := w.Build(a, p, opts); err != nil {
		return nil, fmt.Errorf("building the probe assembly: %w", err)
	}
	ncomp := len(a.Components())

	// core: the sampling fast path over the built assembly.
	buf := make([]core.FastSample, 0, ncomp)
	ns, _, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			buf = a.SampleAll(core.LevelApplication, buf[:0])
		}
	})
	pr.set("core.sample_all_ns", ns)

	// monitor: one sampling tick into a ring, drained when full.
	ring := monitor.NewRing(4096, 2)
	wr := ring.SoleWriter()
	batch := make([]monitor.Sample, 0, ncomp)
	drain := make([]monitor.Sample, 0, 4096)
	var clock int64
	ns, _, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			clock++
			_, buf, batch = monitor.SampleTick(a, core.LevelApplication, clock, wr, buf, batch)
			if ring.Len()+ncomp > ring.Capacity() {
				drain = ring.DrainInto(drain[:0])
			}
		}
	})
	pr.set("monitor.sample_tick_ns", ns)

	// monitor: fold one window's samples and flush it.
	var samples []monitor.Sample
	for t := 0; t < samplesPerWindow; t++ {
		_, buf, batch = monitor.SampleTick(a, core.LevelApplication, int64(t), wr, buf, batch)
		samples = append(samples, batch...)
	}
	drain = ring.DrainInto(drain[:0])
	ag := monitor.NewAggregator(0)
	var windows []monitor.WindowStats
	var base int64
	ns, _, bytes := measure(func(n int) {
		for i := 0; i < n; i++ {
			for _, s := range samples {
				s.TimeUS += base
				ag.Add(s)
			}
			base += int64(samplesPerWindow)
			windows = ag.Flush(base)
		}
	})
	pr.set("monitor.aggregate_ns_per_window", ns)
	pr.set("monitor.alloc_bytes_per_window", bytes)
	windows = append([]monitor.WindowStats(nil), windows...)

	// sim: one blocking put+get round through a kernel queue.
	ns, _, _ = measure(func(n int) {
		k := sim.NewKernel()
		q := sim.NewQueue[int](k, "q", 1)
		k.Spawn("prod", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Put(p, i)
			}
			q.Close()
		})
		k.Spawn("cons", func(p *sim.Proc) {
			for {
				if _, ok := q.Get(p); !ok {
					return
				}
			}
		})
		_ = k.Run()
	})
	pr.set("sim.handoff_ns", ns)

	// native: one instrumented send+receive through the mailbox.
	ns, _, _ = measure(func(n int) { nativeRound(n) })
	pr.set("native.mailbox_send_ns", ns)

	// mjpeg: the monolithic decode of the run's first frame.
	frame, err := synthStream(0, 1)
	if err != nil {
		return nil, err
	}
	if opts.Stream != nil {
		frames, err := mjpeg.SplitStream(opts.Stream)
		if err != nil {
			return nil, err
		}
		frame = frames[0]
	}
	if _, err := mjpeg.Decode(frame); err != nil {
		return nil, err
	}
	ns, _, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			_, _ = mjpeg.Decode(frame)
		}
	})
	pr.set("mjpeg.decode_ns_per_frame", ns)

	// wire: encode and decode one frame of each payload kind.
	frames, err := wireFrames(frame, windows)
	if err != nil {
		return nil, err
	}
	for _, kind := range wireKinds {
		if err := probeWire(pr, kind, frames[kind]); err != nil {
			return nil, err
		}
	}

	// serve: publish one event to 1 and to 8 draining subscribers.
	ev := serve.Event{Assembly: "a0", Seq: 1, Window: monitor.NewWindowRecord(windows[0])}
	for _, subs := range []int{1, 8} {
		pr.set(fmt.Sprintf("serve.publish_ns_per_sub_%d", subs), publishCost(ev, subs))
	}

	// ctl: evaluate the installed policy set against one window.
	c := ctl.NewController()
	if err := c.SetPolicies(benchPolicies(2000)); err != nil {
		return nil, err
	}
	rec := ev.Window
	rec.Component = "Sink"
	ns, _, _ = measure(func(n int) {
		for i := 0; i < n; i++ {
			c.Observe(rec)
		}
	})
	pr.set("ctl.observe_ns_per_window", ns)

	// cluster: spawn, connect and drain two workers around a one-message
	// pipeline.
	var setups []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		err := deadline(runDeadline, nil, func() error {
			_, err := exp.Run(platform.MustGet("cluster"), platform.MustGetWorkload("pipeline"),
				exp.Options{Options: platform.Options{Scale: 1}})
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("cluster set-up probe: %w", err)
		}
		setups = append(setups, float64(time.Since(t).Nanoseconds())/1e6)
	}
	pr.set("cluster.setup_ms", median(setups))
	return pr, nil
}

// nativeRound sends n messages through one native mailbox.
func nativeRound(n int) {
	m, a := platform.MustGet("native").New("perfbench-probe")
	prod := a.MustNewComponent("prod", func(ctx *core.Ctx) {
		for i := 0; i < n; i++ {
			ctx.Send("out", nil, 1024)
		}
	})
	prod.MustAddRequired("out")
	cons := a.MustNewComponent("cons", func(ctx *core.Ctx) {
		for {
			if _, ok := ctx.Receive("in"); !ok {
				return
			}
		}
	})
	cons.MustAddProvided("in", 1<<20)
	a.MustConnect(prod, "out", cons, "in")
	if err := a.Start(); err == nil {
		_ = m.Run(int64(60 * time.Second / time.Microsecond))
	}
}

// wireFrames builds one frame per payload kind from real decoder groups
// and real monitor windows.
func wireFrames(jpeg []byte, windows []monitor.WindowStats) (map[string]*wire.Frame, error) {
	h, err := mjpeg.ParseFrame(jpeg)
	if err != nil {
		return nil, err
	}
	blocks, err := h.DecodeBlocks()
	if err != nil {
		return nil, err
	}
	groups, err := mjpeg.SplitBlocks(0, h, blocks, 18)
	if err != nil {
		return nil, err
	}
	return map[string]*wire.Frame{
		"scalar":      {Type: wire.TypeData, Edge: 3, Bytes: 4096, From: "S1W1", Payload: uint64(0x9E3779B97F4A7C15)},
		"block_group": {Type: wire.TypeData, Edge: 0, Bytes: 4096, From: "Fetch", Payload: groups[0]},
		"pixel_group": {Type: wire.TypeData, Edge: 1, Bytes: 4096, From: "IDCT_1", Payload: mjpeg.TransformGroup(&groups[0])},
		"windows":     {Type: wire.TypeWindows, Shard: 1, Windows: windows},
	}, nil
}

func probeWire(pr probeSet, kind string, f *wire.Frame) error {
	enc, err := wire.AppendFrame(nil, f)
	if err != nil {
		return fmt.Errorf("wire %s: %w", kind, err)
	}
	var g wire.Frame
	if err := wire.DecodeFrame(enc[4:], &g); err != nil {
		return fmt.Errorf("wire %s: %w", kind, err)
	}
	buf := make([]byte, 0, len(enc))
	encNs, encAllocs, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			buf, _ = wire.AppendFrame(buf[:0], f)
		}
	})
	decNs, decAllocs, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			_ = wire.DecodeFrame(enc[4:], &g)
		}
	})
	pr.set("wire.encode_ns."+kind, encNs)
	pr.set("wire.decode_ns."+kind, decNs)
	pr.set("wire.allocs_per_frame."+kind, encAllocs+decAllocs)
	return nil
}

// publishCost is Broker.Publish's cost per subscriber, with every
// subscriber drained by its own goroutine.
func publishCost(ev serve.Event, subs int) float64 {
	b := serve.NewBroker(1024)
	stop := make(chan struct{})
	done := make(chan struct{}, subs)
	var ss []*serve.Subscriber
	for i := 0; i < subs; i++ {
		s := b.Subscribe("")
		ss = append(ss, s)
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				select {
				case <-s.C():
				case <-stop:
					return
				}
			}
		}()
	}
	ns, _, _ := measure(func(n int) {
		for i := 0; i < n; i++ {
			b.Publish(ev)
		}
	})
	close(stop)
	for range ss {
		<-done
	}
	for _, s := range ss {
		b.Unsubscribe(s)
	}
	return ns / float64(subs)
}
