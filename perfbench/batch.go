package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"embera/internal/burstwl"
	"embera/internal/core"
	"embera/internal/exp"
	"embera/internal/mjpeg"
	"embera/internal/monitor"
	"embera/internal/platform"
)

// runDeadline bounds one exp.Run. The largest batch job takes well under a
// second; a run still going after this is hung.
const runDeadline = 60 * time.Second

// batchJob is one fixed exp.Run job: a platform, a workload input made
// from the seed, and the monitor configuration.
type batchJob struct {
	platform string
	levels   []monitor.LevelPeriod
	frames   int // mjpeg workloads: frames per run
	reqs     int // burst: requests per client
}

func jobFor(cfg config) batchJob {
	app := monitor.LevelPeriod{Level: core.LevelApplication, PeriodUS: 1000}
	switch cfg.workload {
	case "mjpeg-sti7200":
		j := batchJob{platform: "sti7200", frames: 100,
			levels: []monitor.LevelPeriod{app, {Level: core.LevelOS, PeriodUS: 10_000}}}
		if cfg.tiny {
			j.frames = 3
		}
		return j
	case "burst-smp":
		j := batchJob{platform: "smp", reqs: 500, levels: []monitor.LevelPeriod{app}}
		if cfg.tiny {
			j.reqs = 8
		}
		return j
	default: // mjpeg-cluster
		j := batchJob{platform: "cluster", frames: 100, levels: []monitor.LevelPeriod{app}}
		if cfg.tiny {
			j.frames = 3
		}
		return j
	}
}

// burstArg is the burst spec of the job: the issue's message storm with
// the run's seed.
func (j batchJob) burstArg(seed int64) string {
	return fmt.Sprintf("clients=16,servers=8,fanout=4,rate=200000,reqs=%d,seed=%d", j.reqs, seed)
}

// inputs synthesizes the job's input from the seed: the MJPEG stream of
// frames [seed×frames, (seed+1)×frames) of the synthetic sequence, or
// nothing for burst, whose schedule the workload derives from its name.
func (j batchJob) inputs(seed int64) (workload string, opts platform.Options, err error) {
	if j.frames > 0 {
		opts.Stream, err = synthStream(int(seed%100_000)*j.frames, j.frames)
	}
	return j.workloadName(seed), opts, err
}

func (j batchJob) workloadName(seed int64) string {
	if j.frames == 0 {
		return burstwl.Family + ":" + j.burstArg(seed)
	}
	return "mjpeg"
}

func synthStream(first, frames int) ([]byte, error) {
	var out []byte
	for n := first; n < first+frames; n++ {
		f, err := mjpeg.Encode(mjpeg.SynthFrame(exp.RefW, exp.RefH, n), mjpeg.EncodeOptions{Quality: exp.RefQuality})
		if err != nil {
			return nil, err
		}
		out = append(out, f...)
	}
	return out, nil
}

// expected derives the correct outcome independently of the run: the
// closed form for burst, the monolithic reference decoder for MJPEG.
func (j batchJob) expected(seed int64, stream []byte) (units int, checksum uint64, err error) {
	if j.frames == 0 {
		spec, err := burstwl.ParseSpec(j.burstArg(seed))
		if err != nil {
			return 0, 0, err
		}
		units, checksum = spec.Expected()
		return units, checksum, nil
	}
	frames, err := mjpeg.SplitStream(stream)
	if err != nil {
		return 0, 0, err
	}
	for i, fr := range frames {
		img, err := mjpeg.Decode(fr)
		if err != nil {
			return 0, 0, err
		}
		checksum += frameDigest(i, img)
	}
	return len(frames), checksum, nil
}

// frameDigest mirrors the MJPEG workload's per-frame digest (FNV-1a over
// index, geometry and pixels; digests are summed), so the run's checksum
// can be compared with the reference decoder's output.
func frameDigest(index int, img *mjpeg.Image) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d:%d:%d:%t:", index, img.W, img.H, img.Gray)
	h.Write(img.Pix)
	return h.Sum64()
}

// repRecord is one batch session, measured in its own process: set-up
// plus one exp.Run.
type repRecord struct {
	Traced   bool
	SetupS   float64 // session start → Machine.Run entry
	RunS     float64 // Machine.Run entry → exp.Run return
	Units    int
	CPUUS    float64 // process + reaped children CPU over RunS
	RSSBytes int64   // the session process's resident high-water mark
	Allocs   uint64
	Bytes    uint64
	Makespan int64
	Checksum uint64

	BuildMS, MachineMS float64
	Samples, Windows   uint64
	Dropped            uint64
	Comps              int
	SendOps, RecvOps   uint64
	SendBytes          uint64
	SendUS, RecvUS     int64
	WorkerCPUS         float64
	Lost               uint64
	WireFrames         map[string]uint64 // payload kind → cross-shard frames
	Spans              []span
}

// batchSession runs one session. rec is nil for untraced sessions.
func batchSession(j batchJob, seed int64, rec *recorder) (repRecord, error) {
	r := repRecord{Traced: rec != nil}
	var a0, b0 uint64
	if r.Traced {
		a0, b0 = allocCounts()
	}
	t0 := time.Now()
	sid := rec.begin("session", -1)

	id := rec.begin("setup.synth", sid)
	name, opts, err := j.inputs(seed)
	rec.end(id)
	if err != nil {
		return r, err
	}
	id = rec.begin("setup.resolve", sid)
	p, perr := platform.Get(j.platform)
	w, werr := platform.GetWorkload(name)
	rec.end(id)
	if perr != nil || werr != nil {
		return r, fmt.Errorf("resolving %s × %s: %v %v", j.platform, name, perr, werr)
	}

	h := &hooks{rec: rec}
	h.parent = rec.begin("exp.Run", sid)
	kids0 := childCPU()
	var res *exp.Result
	err = deadline(runDeadline, func() {
		if m := h.lastMachine(); m != nil {
			platform.Interrupt(m)
		}
	}, func() error {
		var err error
		res, err = exp.Run(timedPlatform{p, h}, timedWorkload{w, h}, exp.Options{
			Options: opts,
			Monitor: &monitor.Config{Levels: j.levels},
		})
		return err
	})
	end := time.Now()
	cpu1 := cpuTime()
	rec.end(h.parent)
	rec.end(sid)
	if err != nil {
		return r, fmt.Errorf("exp.Run: %w", err)
	}
	r.RSSBytes = peakRSSBytes()
	if r.Traced {
		a1, b1 := allocCounts()
		r.Allocs, r.Bytes = a1-a0, b1-b0
	}
	r.SetupS = h.runStart.Sub(t0).Seconds()
	r.RunS = end.Sub(h.runStart).Seconds()
	r.CPUUS = float64((cpu1 - h.cpuStart).Microseconds())
	r.Units = res.Instance.Units()
	r.Checksum = res.Instance.Checksum()
	r.Makespan = res.MakespanUS
	r.WorkerCPUS = (childCPU() - kids0).Seconds()
	if gens := h.generations(); len(gens) > 0 {
		r.BuildMS = float64(gens[0].buildNs) / 1e6
		r.MachineMS = float64(gens[0].runNs) / 1e6
	}
	r.Samples = res.Monitor.Samples()
	r.Windows = uint64(len(res.Monitor.Windows()))
	r.Dropped = res.Monitor.Dropped()
	r.Comps = len(res.App.Components())
	for _, rp := range res.Reports {
		if rp.App != nil {
			r.SendOps += rp.App.SendOps
			r.RecvOps += rp.App.RecvOps
		}
		if rp.Middleware != nil {
			for _, s := range rp.Middleware.Send {
				r.SendBytes += s.Bytes
				r.SendUS += s.TotalUS
			}
			for _, s := range rp.Middleware.Recv {
				r.RecvUS += s.TotalUS
			}
		}
	}
	if sm, ok := res.Machine.(sharder); ok {
		r.Lost = sm.LostFrames()
		r.WireFrames = map[string]uint64{}
		for _, c := range res.App.Components() {
			for _, cn := range c.Connections() {
				if n, ok := sm.WireFrames(c.Name(), cn.FromIface); ok {
					r.WireFrames[payloadKind(c.Name())] += n
				}
			}
		}
	}
	r.Spans = rec.snapshot()
	return r, nil
}

// payloadKind names the wire payload a component of the MJPEG decoder
// sends: Fetch emits block groups, the IDCTs pixel groups.
func payloadKind(component string) string {
	switch {
	case strings.HasPrefix(component, "Fetch"):
		return "block_group"
	case strings.HasPrefix(component, "IDCT"):
		return "pixel_group"
	}
	return "scalar"
}

// runBatch runs one warm-up session, then sessions until the measured
// time is spent, each in a fresh process. A traced run alternates
// untraced and traced sessions, so the tracing overhead is measured
// against neighbours in time.
func runBatch(cfg config) (*outcome, error) {
	j := jobFor(cfg)
	out := newOutcome()
	_, opts, err := j.inputs(cfg.seed)
	if err != nil {
		return nil, err
	}
	wantUnits, wantSum, err := j.expected(cfg.seed, opts.Stream)
	if err != nil {
		return nil, fmt.Errorf("deriving the expected outcome: %w", err)
	}
	var makespan int64 = -1
	check := func(r repRecord, err error) bool {
		out.attempted++
		switch {
		case err != nil:
			out.fail("run %d: %v", out.attempted, err)
		case r.Units != wantUnits || r.Checksum != wantSum:
			out.fail("run %d: %d units, checksum %016x; want %d, %016x", out.attempted, r.Units, r.Checksum, wantUnits, wantSum)
		case r.Lost != 0:
			out.fail("run %d: %d cluster frames lost", out.attempted, r.Lost)
		case j.platform != "cluster" && makespan >= 0 && r.Makespan != makespan:
			out.fail("run %d: simulated makespan %d µs, earlier runs %d µs", out.attempted, r.Makespan, makespan)
		default:
			makespan = r.Makespan
			return true
		}
		return false
	}
	var warm repRecord
	if err := inChild(cfg, false, 0, &warm); !check(warm, err) {
		return out, nil
	}
	minReps := 5
	if cfg.tiny {
		minReps = 2
	}
	var plain, traced []repRecord
	start := time.Now()
	for i := 1; i <= minReps || time.Since(start).Seconds() < cfg.seconds; i++ {
		var r repRecord
		if err := inChild(cfg, cfg.trace && i%2 == 0, i, &r); !check(r, err) {
			return out, nil
		}
		if r.Traced {
			traced = append(traced, r)
			out.spans = appendSpans(out.spans, r.Spans, fmt.Sprintf("%s-%d/%d", cfg.workload, cfg.seed, i))
		} else {
			plain = append(plain, r)
		}
	}
	med := func(rs []repRecord, f func(r repRecord) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return median(xs)
	}
	rate := func(r repRecord) float64 { return float64(r.Units) / r.RunS }
	out.e2e["units_per_s"] = metric{med(plain, rate), "1/s"}
	out.e2e["host_cpu_us_per_unit"] = metric{med(plain, func(r repRecord) float64 { return r.CPUUS / float64(r.Units) }), "us"}
	out.e2e["peak_rss_mb"] = metric{med(plain, func(r repRecord) float64 { return float64(r.RSSBytes) / 1e6 }), "MB"}
	out.e2e["setup_s"] = metric{med(plain, func(r repRecord) float64 { return r.SetupS }), "s"}
	out.extra["runs"] = metric{float64(len(plain)), "count"}
	if j.platform != "cluster" {
		out.extra["sim_makespan_us"] = metric{float64(makespan), "virtual_us"}
	}
	if !cfg.trace {
		return out, nil
	}

	l := out.layers
	tm := func(f func(r repRecord) float64) float64 { return med(traced, f) }
	l["exp.build_ms"] = metric{tm(func(r repRecord) float64 { return r.BuildMS }), "ms"}
	l["exp.run_ms"] = metric{tm(func(r repRecord) float64 { return r.MachineMS }), "ms"}
	l["exp.allocs_per_unit"] = metric{tm(func(r repRecord) float64 { return float64(r.Allocs) / float64(r.Units) }), "count"}
	l["exp.alloc_bytes_per_unit"] = metric{tm(func(r repRecord) float64 { return float64(r.Bytes) / float64(r.Units) }), "B"}
	l["exp.generations_per_s"] = metric{1 / tm(func(r repRecord) float64 { return r.SetupS + r.RunS }), "1/s"}
	l["core.send_ops"] = metric{tm(func(r repRecord) float64 { return float64(r.SendOps) }), "count"}
	l["core.recv_ops"] = metric{tm(func(r repRecord) float64 { return float64(r.RecvOps) }), "count"}
	l["core.send_bytes"] = metric{tm(func(r repRecord) float64 { return float64(r.SendBytes) }), "B"}
	l["core.send_wait_us_per_op"] = metric{tm(func(r repRecord) float64 { return float64(r.SendUS) / float64(max(r.SendOps, 1)) }), "us"}
	l["core.recv_wait_us_per_op"] = metric{tm(func(r repRecord) float64 { return float64(r.RecvUS) / float64(max(r.RecvOps, 1)) }), "us"}
	l["sim.run_ns_per_op"] = metric{tm(func(r repRecord) float64 { return r.MachineMS * 1e6 / float64(max(r.SendOps+r.RecvOps, 1)) }), "ns"}
	l["monitor.samples"] = metric{tm(func(r repRecord) float64 { return float64(r.Samples) }), "count"}
	l["monitor.windows"] = metric{tm(func(r repRecord) float64 { return float64(r.Windows) }), "count"}
	l["monitor.ring_dropped"] = metric{tm(func(r repRecord) float64 { return float64(r.Dropped) }), "count"}
	l["cluster.worker_cpu_s"] = metric{tm(func(r repRecord) float64 { return r.WorkerCPUS }), "s"}
	var lost float64
	for _, r := range traced {
		lost += float64(r.Lost)
	}
	l["cluster.lost_frames"] = metric{lost, "count"}
	for _, name := range []string{"serve.flush_to_broker_us_p50", "serve.flush_to_broker_us_p99",
		"serve.sse_hop_us_p50", "serve.sse_hop_us_p99", "serve.sse_bytes_per_window",
		"serve.metrics_scrape_ms_p50", "serve.control_post_ms_p50", "serve.broker_dropped",
		"ctl.firings", "ctl.firings_dropped", "bench.generator_late_ms_p99"} {
		// This workload never reaches the service layer.
		l[name] = metric{0, layerUnits[name]}
	}
	off, on := med(plain, rate), med(traced, rate)
	l["bench.trace_overhead_pct"] = metric{(off - on) / off * 100, "%"}

	// The monitor samples every 1 ms into 10 ms windows.
	pr, err := runProbes(j.platform, j.workloadName(cfg.seed), opts, 10)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	for k, v := range pr {
		l[k] = v
	}
	l["bench.ledger_residual_pct"] = metric{ledgerResidual(j, pr, traced[len(traced)-1]), "%"}
	return out, nil
}

// ledgerResidual predicts one run's Machine.Run time from probe costs ×
// the run's operation counts, and returns the share of the measured time
// the prediction leaves unexplained, in percent.
func ledgerResidual(j batchJob, pr map[string]metric, r repRecord) float64 {
	ns := func(name string) float64 { return pr[name].Value }
	msgs := float64(r.SendOps)
	var predicted float64
	if j.platform == "cluster" {
		predicted += msgs * ns("native.mailbox_send_ns")
		for kind, n := range r.WireFrames {
			// Worker encode, coordinator decode and re-encode, worker decode.
			predicted += 2 * float64(n) * (ns("wire.encode_ns."+kind) + ns("wire.decode_ns."+kind))
		}
	} else {
		predicted += msgs * ns("sim.handoff_ns")
	}
	comps := float64(max(r.Comps, 1))
	predicted += float64(r.Samples) / comps * ns("monitor.sample_tick_ns")
	predicted += float64(r.Windows) / comps * ns("monitor.aggregate_ns_per_window")
	if j.frames > 0 {
		predicted += float64(r.Units) * ns("mjpeg.decode_ns_per_frame")
	}
	measured := r.MachineMS * 1e6
	return (measured - predicted) / measured * 100
}
