// Package exp contains the experiment harness: one runner per table and
// figure of the paper's evaluation (Table 1, Table 2, Figure 4, Figure 5 on
// SMP; Table 3, Figure 8 on the STi7200), plus the ablations listed in
// DESIGN.md §5. Every experiment goes through the single Run entry point,
// which executes any registered workload on any registered platform and
// owns the observer, monitor and trace attachment. cmd/embera-bench and the
// top-level benchmarks drive these runners; EXPERIMENTS.md records
// paper-vs-measured for each.
package exp

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"embera/internal/core"
	"embera/internal/mjpeg"
	"embera/internal/mjpegapp"
	"embera/internal/monitor"
	"embera/internal/pipelineapp"
	"embera/internal/platform"
	"embera/internal/sim"
)

// Reference workload: the paper's inputs are two MJPEG videos of 578 and
// 3000 frames with identical dimensions. We synthesize equivalents.
const (
	RefW       = mjpegapp.RefW
	RefH       = mjpegapp.RefH
	RefQuality = mjpegapp.RefQuality

	// SmallFrames and LargeFrames are the paper's input sizes.
	SmallFrames = 578
	LargeFrames = 3000
)

// Both workload packages register themselves on import; referencing them
// here guarantees every exp user sees a fully populated registry.
var _ = pipelineapp.DefaultConfig

var (
	streamMu    sync.Mutex
	streamCache = map[int][]byte{}
)

// RefStream returns (and caches) the reference MJPEG stream with the given
// frame count.
func RefStream(frames int) ([]byte, error) {
	streamMu.Lock()
	defer streamMu.Unlock()
	if s, ok := streamCache[frames]; ok {
		return s, nil
	}
	s, err := mjpeg.SynthStream(RefW, RefH, frames, mjpeg.EncodeOptions{Quality: RefQuality})
	if err != nil {
		return nil, err
	}
	streamCache[frames] = s
	return s, nil
}

// horizon bounds every simulated run; hitting it is reported as an error.
const horizon = sim.Time(100 * 3600 * sim.Second)

// wallHorizonUS bounds wall-clock (non-deterministic) runs: five minutes of
// real time is far beyond any workload in this repository, so reaching it
// means the run hung.
const wallHorizonUS = int64(5 * 60 * 1e6)

// Options configures one Run beyond the platform × workload choice. The
// embedded platform.Options carries the workload inputs (Scale, Stream,
// MessageBytes); the rest attaches harness machinery.
type Options struct {
	platform.Options

	// EventSink, when non-nil, receives every instrumentation event (the
	// binary trace recorder, the kptrace bridge). Attached before Start.
	EventSink core.EventSink
	// Monitor, when non-nil, attaches a streaming observation pipeline
	// with this configuration; the running monitor is returned on Run.
	Monitor *monitor.Config
	// OnMonitor, when non-nil (and Monitor asked for a pipeline), receives
	// the live monitor right after it starts — the hook long-running front
	// ends (exp.RunServed, embera-serve) use to apply sampling-period,
	// window and pause control to a run already in flight.
	OnMonitor func(m *monitor.Monitor)
	// Customize runs after the observer is attached and before Start —
	// extra drivers, probes, sinks.
	Customize func(a *core.App, obs *core.Observer)
}

// distributor is the structural seam a machine exposes when it shards the
// built assembly across processes (the cluster platform). The runner calls
// it between workload build and monitor creation.
type distributor interface {
	Distribute(workload string, opts platform.Options, inst platform.Instance) error
}

// monitorTaker is the companion seam: the machine receives the run's live
// monitor (for central window ingestion) and its configuration (mirrored to
// every shard) right after the monitor starts.
type monitorTaker interface {
	TakeMonitor(mon *monitor.Monitor, cfg *monitor.Config)
}

// validate rejects malformed options before any machinery is built, so a
// bad sweep parameter surfaces as an error at the harness boundary instead
// of a panic deep inside monitor or workload setup.
func (o *Options) validate() error {
	if o.Scale < 0 {
		return fmt.Errorf("exp: negative scale %d", o.Scale)
	}
	if o.MessageBytes < 0 {
		return fmt.Errorf("exp: negative message size %d", o.MessageBytes)
	}
	if o.Monitor != nil {
		for _, lp := range o.Monitor.Levels {
			if lp.PeriodUS <= 0 {
				return fmt.Errorf("exp: monitor level %s has non-positive period %d µs",
					lp.Level, lp.PeriodUS)
			}
		}
		if o.Monitor.WindowUS < 0 {
			return fmt.Errorf("exp: negative monitor window %d µs", o.Monitor.WindowUS)
		}
		for i, s := range o.Monitor.Sinks {
			if s == nil {
				return fmt.Errorf("exp: monitor sink %d is nil", i)
			}
		}
	}
	return nil
}

// Result is a completed run with its observation reports.
type Result struct {
	Platform platform.Platform
	// Machine is the platform instance that executed the run.
	Machine platform.Machine
	// Kernel is the discrete-event kernel on simulated platforms, nil on
	// wall-clock ones (it is Machine.Kernel(), kept for convenience).
	Kernel *sim.Kernel
	App    *core.App
	// Instance is the workload's result tracker (units, checksum).
	Instance platform.Instance
	// Monitor is the streaming pipeline, when Options.Monitor asked for one.
	Monitor *monitor.Monitor
	Reports map[string]core.ObsReport
	// MakespanUS is the platform time at which the application finished:
	// virtual µs on simulated platforms, wall-clock µs on native.
	MakespanUS int64
}

// assembly is a built and observed application that has not started yet:
// what assemble hands back to Run and to a served generation.
type assembly struct {
	machine platform.Machine
	app     *core.App
	inst    platform.Instance
	mon     *monitor.Monitor // nil when opts.Monitor asked for none
	obs     *core.Observer
}

// assemble is the setup every run shares, batch and served alike: build
// workload w on a fresh machine of p, then — in this order — hand sharding
// machines the Distribute seam, attach the event sink, create and start
// the monitor, pass it to opts.OnMonitor and to monitor-taking machines,
// attach the observer, run opts.Customize and finally call publish (when
// non-nil). The machine seams are found by interface assertion on
// whatever p.New returned, never by platform type. On any error after the
// monitor started, the monitor is stopped again: on wall-clock platforms
// its drivers are real goroutines polling a run that will never quiesce.
func assemble(p platform.Platform, w platform.Workload, opts Options, publish func(*assembly) error) (_ *assembly, err error) {
	m, a := p.New(w.Name())
	inst, err := w.Build(a, p, opts.Options)
	if err != nil {
		return nil, err
	}
	// Machines that shard the assembly across processes (cluster) take the
	// distribution seam here — after the workload is built, before the
	// monitor exists, so every component is marked external before the
	// first sampling tick.
	if d, ok := m.(distributor); ok {
		if err := d.Distribute(w.Name(), opts.Options, inst); err != nil {
			return nil, err
		}
	}
	if opts.EventSink != nil {
		a.SetEventSink(opts.EventSink)
	}
	var mon *monitor.Monitor
	if opts.Monitor != nil {
		if mon, err = monitor.New(a, *opts.Monitor); err != nil {
			return nil, err
		}
		if err := mon.Start(); err != nil {
			return nil, err
		}
		defer func() {
			if err != nil {
				mon.Stop()
			}
		}()
		if opts.OnMonitor != nil {
			opts.OnMonitor(mon)
		}
		// Sharding machines also take the live monitor: worker windows are
		// ingested into it centrally, and its configuration mirrors into
		// every shard.
		if mt, ok := m.(monitorTaker); ok {
			mt.TakeMonitor(mon, opts.Monitor)
		}
	}
	obs, err := a.AttachObserver()
	if err != nil {
		return nil, err
	}
	if opts.Customize != nil {
		opts.Customize(a, obs)
	}
	as := &assembly{machine: m, app: a, inst: inst, mon: mon, obs: obs}
	if publish != nil {
		if err := publish(as); err != nil {
			return nil, err
		}
	}
	return as, nil
}

// Run executes workload w on platform p to completion and collects
// observations through the in-application observer. It is the single
// harness path: every binary, experiment, benchmark and conformance cell
// funnels through here, on simulated and wall-clock platforms alike.
func Run(p platform.Platform, w platform.Workload, opts Options) (_ *Result, err error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	as, err := assemble(p, w, opts, nil)
	if err != nil {
		return nil, err
	}
	m, a := as.machine, as.app
	if k := m.Kernel(); k != nil {
		// Everything the result carries is recorded data. Unwind the
		// simulation's parked service flows, which would otherwise keep
		// the finished machine alive for as long as the process runs.
		defer k.Shutdown()
	}
	if as.mon != nil {
		// The remaining failure paths leave a run that will never
		// quiesce: wind the monitor's drivers down with it.
		defer func() {
			if err != nil {
				as.mon.Stop()
			}
		}()
	}
	if err := a.Start(); err != nil {
		return nil, err
	}
	r := &Result{Platform: p, Machine: m, Kernel: m.Kernel(), App: a, Instance: as.inst, Monitor: as.mon}
	var qErr error
	a.SpawnDriver("exp-driver", func(f core.Flow) {
		a.AwaitQuiescence(f)
		r.MakespanUS = m.NowUS()
		r.Reports, qErr = as.obs.QueryAll(f, core.LevelAll)
	})
	horizonUS := int64(horizon) / int64(sim.Microsecond)
	if !p.Deterministic() {
		horizonUS = wallHorizonUS
	}
	if err := m.Run(horizonUS); err != nil {
		return nil, err
	}
	if !a.Done() {
		return nil, fmt.Errorf("exp: application did not finish before the horizon")
	}
	if qErr != nil {
		return nil, qErr
	}
	if r.Reports == nil {
		return nil, fmt.Errorf("exp: observer queries never ran")
	}
	if cerr := as.inst.Check(); cerr != nil {
		return nil, fmt.Errorf("exp: workload self-check: %w", cerr)
	}
	return r, nil
}

// HostCost is the host-side price of one Run: wall-clock time and heap
// allocation between entry and exit, as read from runtime.MemStats. It is
// what the perfstat harness records per platform×workload cell to quantify
// observation overhead.
type HostCost struct {
	WallNs int64
	Allocs uint64
	Bytes  uint64
}

// MeasuredRun is Run bracketed by host-cost accounting. The memory-stats
// read pairs are cheap relative to any run, but callers comparing cells
// should still run cells back-to-back on an otherwise idle process so GC
// timing noise stays small relative to the measured work.
func MeasuredRun(p platform.Platform, w platform.Workload, opts Options) (*Result, HostCost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	r, err := Run(p, w, opts)
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return r, HostCost{
		WallNs: wall.Nanoseconds(),
		Allocs: m1.Mallocs - m0.Mallocs,
		Bytes:  m1.TotalAlloc - m0.TotalAlloc,
	}, err
}

// RunNamed resolves both registries and runs. Unknown names return the
// registry errors, which list the valid choices.
func RunNamed(platformName, workloadName string, opts Options) (*Result, error) {
	p, err := platform.Get(platformName)
	if err != nil {
		return nil, err
	}
	w, err := platform.GetWorkload(workloadName)
	if err != nil {
		return nil, err
	}
	return Run(p, w, opts)
}

// SMP and STi7200 return the two registered paper platforms, the fixed
// points the paper's tables and figures are defined on.
func SMP() platform.Platform { return platform.MustGet("smp") }

// STi7200 returns the registered STi7200 platform.
func STi7200() platform.Platform { return platform.MustGet("sti7200") }

// mjpegCfg is shorthand for the paper's deployment of the decoder on p.
func mjpegCfg(stream []byte, p platform.Platform) mjpegapp.Config {
	return mjpegapp.ConfigFor(stream, p.Topology())
}

// runMJPEG runs an explicit decoder configuration on p.
func runMJPEG(p platform.Platform, cfg mjpegapp.Config, opts Options) (*Result, error) {
	return Run(p, mjpegapp.NewWorkload(cfg), opts)
}
