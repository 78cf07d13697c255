// Package conformance is the differential engine: the record-and-compare
// battery that runs generated workload seeds across every registered
// platform and cross-checks everything the observation stack reports. Any
// parameterized workload family registered as "<family>:<seed>" plugs in —
// internal/fuzzwl's "rand" random DAGs and internal/burstwl's "burst"
// open-loop RPC cells today — as long as its instances implement
// platform.FlowModeler. It is the strongest pressure the repository puts on
// the paper's central claim — that component-level observation stays
// faithful across heterogeneous platforms — because none of the workloads
// it runs were ever hand-written.
//
// There is one entry point, Sweep, and one per-cell battery. Every
// seed × platform cell, plain or migrated, of every family, must satisfy:
//
//   - result checksums and unit counts must be identical on every platform
//     (portability of application semantics);
//   - timing fingerprints must be bit-identical between two runs of the
//     same cell on Deterministic (virtual-time) platforms;
//   - flow conservation must hold per interface: messages sent into every
//     inbox equal messages received plus the in-flight depth the final
//     report shows at teardown — and both must match the workload's
//     closed-form flow model (platform.FlowModeler);
//   - on process-sharded machines (the cluster platform) the same law is
//     accounted per shard: the sends into an inbox are summed per source
//     process so a cross-process mismatch names the interface and the
//     shards on both ends, and every cross-shard edge must show exactly
//     one wire frame per producer send op;
//   - every component's final report must show it done, no longer running
//     in the OS view, with a non-negative execution time, positive memory,
//     middleware counters equal to the application counters and the
//     observation interface listed first;
//   - the streaming monitor's window aggregates must agree with the final
//     pull-model observer report (cumulative counters never exceed the
//     final ones, merged deltas reproduce the cumulative totals, and no
//     sample is lost unaccounted);
//   - the monitor's windowed send-latency histograms must report
//     monotonic, makespan-bounded p50/p95/p99 percentiles, and carry
//     samples at all on any deterministic run spanning a window;
//   - with Spec.Migrate set, a seeded schedule of same-target
//     migrate/reconnect points fires while each cell flows, and every
//     point must apply cleanly or legally race termination;
//   - on the simulated-Linux platform the kernel trace must correlate
//     completely with the EMBera send trace: no kernel copy without an
//     application-level explanation, and no send without its kernel copy.
//
// Every failure names its seed and ends with a one-line repro rendered
// from the Spec ("embera-bench -exp DIFF -family rand -seed <n> -seeds 1"),
// so a nightly soak finding reduces to a single deterministic invocation.
package conformance

import (
	"context"
	"fmt"
	"sync"

	"embera/internal/core"
	"embera/internal/ctl"
	"embera/internal/exp"
	"embera/internal/kptrace"
	"embera/internal/monitor"
	"embera/internal/platform"
	"embera/internal/smpbind"
	"embera/internal/trace"

	// The workload families a Sweep resolves through the registry.
	_ "embera/internal/burstwl"
	_ "embera/internal/fuzzwl"
)

// Spec selects one differential sweep: the seeds [Start, Start+N) of one
// workload family, each run on every requested platform.
type Spec struct {
	// Family is the workload-family prefix; seed s resolves as the
	// registry name "<Family>:<s>" ("rand", "burst").
	Family string
	// Migrate attaches the fuzzed migration scheduler to every cell.
	Migrate bool
	// Platforms restricts the sweep to the named platforms (nil = every
	// registered platform).
	Platforms []string
	// Start is the first seed; N is the number of seeds.
	Start int64
	N     int
}

// workload is the registry name of seed s's cell.
func (s Spec) workload(seed int64) string { return fmt.Sprintf("%s:%d", s.Family, seed) }

// repro is the one-line command that reruns exactly one seed of this
// sweep through the same engine.
func (s Spec) repro(seed int64) string {
	cmd := fmt.Sprintf("embera-bench -exp DIFF -family %s -seed %d -seeds 1", s.Family, seed)
	if s.Migrate {
		cmd += " -migrate"
	}
	if len(s.Platforms) == 1 {
		cmd += " -platform " + s.Platforms[0]
	}
	return cmd
}

// migrationPoints is how many same-target migrate/reconnect points the
// fuzzed migration scheduler injects into each migrated cell. Delays land
// in the low milliseconds, so several points hit while the generated
// workload is still flowing.
const migrationPoints = 6

// chunk is how many seeds run concurrently: all their cells are in flight
// at once, which bounds the machines (and cluster worker processes) alive
// at any moment.
const chunk = 4

// Sweep runs the differential battery over spec's seeds × platforms and
// returns the number of cells executed. Cells of a chunk of seeds run
// concurrently, each on its own machine; the first failing seed — lowest
// seed, platform-name order within a seed — is returned as an error that
// names the seed and ends with its one-line repro. The context is checked
// between chunks, so an interrupted sweep finishes the chunk in flight (no
// half-verified seeds) and returns ctx.Err() with the cell count so far.
// Unknown platforms and families fail up front with the registry errors,
// which list the valid names.
func Sweep(ctx context.Context, spec Spec) (cells int, err error) {
	if spec.N <= 0 {
		return 0, fmt.Errorf("conformance: sweep needs a positive seed count, got %d", spec.N)
	}
	names := spec.Platforms
	if names == nil {
		names = platform.Names()
	}
	platforms := make([]platform.Platform, len(names))
	for i, pn := range names {
		if platforms[i], err = platform.Get(pn); err != nil {
			return 0, err
		}
	}
	if _, err := platform.GetWorkload(spec.workload(spec.Start)); err != nil {
		return 0, err
	}
	end := spec.Start + int64(spec.N)
	for lo := spec.Start; lo < end; lo += chunk {
		if err := ctx.Err(); err != nil {
			return cells, err
		}
		hi := min(lo+chunk, end)
		rows := make([][]outcome, hi-lo)
		var wg sync.WaitGroup
		for s := lo; s < hi; s++ {
			row := make([]outcome, len(platforms))
			rows[s-lo] = row
			for i, p := range platforms {
				wg.Add(1)
				go func() {
					defer wg.Done()
					row[i] = runCell(p, spec.workload(s), spec.Migrate)
				}()
			}
		}
		wg.Wait()
		cells += len(rows) * len(platforms)
		for s := lo; s < hi; s++ {
			if err := compareRow(rows[s-lo]); err != nil {
				return cells, fmt.Errorf("conformance: seed %d: %w\nrepro: %s", s, err, spec.repro(s))
			}
		}
	}
	return cells, nil
}

// outcome is one cell's verdict plus the result digest the cross-platform
// comparison needs.
type outcome struct {
	platform string
	checksum uint64
	units    int
	err      error
}

// compareRow checks one seed's row of cells: every cell passed its
// battery, and results agree across platforms.
func compareRow(row []outcome) error {
	for _, o := range row {
		if o.err != nil {
			return fmt.Errorf("%s: %w", o.platform, o.err)
		}
	}
	ref := row[0]
	for _, o := range row[1:] {
		if o.checksum != ref.checksum || o.units != ref.units {
			return fmt.Errorf("%s disagrees with %s: checksum %016x/%d units vs %016x/%d",
				o.platform, ref.platform, o.checksum, o.units, ref.checksum, ref.units)
		}
	}
	return nil
}

// runCell runs one workload on one platform under the full per-cell
// battery: twice on deterministic platforms, whose reruns must agree
// bit-exactly. A panic inside the cell becomes its error, so one broken
// cell cannot take the sweep down.
func runCell(p platform.Platform, workload string, migrate bool) (o outcome) {
	o.platform = p.Name()
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("panicked: %v", r)
		}
	}()
	runs := 1
	if p.Deterministic() {
		runs = 2
	}
	var first uint64
	for r := 0; r < runs; r++ {
		run, err := runChecked(p, workload, migrate)
		if err != nil {
			o.err = err
			return o
		}
		checksum, units := run.Instance.Checksum(), run.Instance.Units()
		var fp uint64
		if runs > 1 {
			// Fingerprints are only ever compared between reruns, so the
			// full report serialization is skipped on wall-clock platforms.
			if fp, err = Fingerprint(run); err != nil {
				o.err = err
				return o
			}
		}
		if r == 0 {
			first, o.checksum, o.units = fp, checksum, units
			continue
		}
		if checksum != o.checksum || units != o.units {
			o.err = fmt.Errorf("rerun results differ: %016x/%d vs %016x/%d", checksum, units, o.checksum, o.units)
		} else if fp != first {
			o.err = fmt.Errorf("nondeterministic timing fingerprints: %016x vs %016x", fp, first)
		}
	}
	return o
}

// runChecked executes one run of a cell and applies every per-run check.
func runChecked(p platform.Platform, workload string, migrate bool) (*exp.Result, error) {
	w, err := platform.GetWorkload(workload)
	if err != nil {
		return nil, err
	}
	var (
		rec   *trace.Recorder
		ktr   *kptrace.Tracer
		sched *ctl.ScheduleResult
	)
	run, err := exp.Run(p, w, exp.Options{
		Monitor: diffMonitorConfig(),
		Customize: func(a *core.App, obs *core.Observer) {
			// Kernel-copy correlation only exists on the simulated-Linux
			// platform, so both tracers — the kernel-level baseline and the
			// EMBera event recorder it correlates against — attach only
			// there; other platforms skip the buffer and the per-event
			// locking.
			if b, ok := a.Binding().(*smpbind.Binding); ok {
				rec = trace.NewRecorder(traceCapacity)
				a.SetEventSink(rec)
				ktr = kptrace.Attach(b.Sys, 0)
			}
			if migrate {
				// The schedule is a pure function of the workload name, so
				// a deterministic platform's rerun injects the identical
				// points and the fingerprint comparison stays meaningful.
				// On the cluster coordinator every component is external,
				// the edge list is empty and the cell runs as a control.
				sched = ctl.AttachMigrations(a, ctl.ScheduleFor(a, migrationPoints))
			}
		},
	})
	if err != nil {
		return nil, err
	}
	if run.Kernel != nil {
		// Everything checked from here on is recorded data. Unwind the
		// simulation's parked service flows, which would otherwise keep
		// each finished machine — caches, recorder and all — alive for
		// the rest of a long sweep.
		defer run.Kernel.Shutdown()
	}
	if sched != nil {
		if err := sched.Err(); err != nil {
			return nil, fmt.Errorf("migration schedule: %w", err)
		}
	}
	if err := CheckRun(run); err != nil {
		return nil, err
	}
	if err := checkTailLatency(run); err != nil {
		return nil, err
	}
	if ktr != nil {
		if err := checkKernelCorrelation(ktr, rec); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// diffMonitorConfig is the streaming-observation attachment every
// differential run carries: application-level sampling fine enough to land
// samples inside small virtual makespans, plus a coarser OS-level sampler
// so both facets of the aggregation pipeline are exercised.
func diffMonitorConfig() *monitor.Config {
	return &monitor.Config{
		Levels: []monitor.LevelPeriod{
			{Level: core.LevelApplication, PeriodUS: 200},
			{Level: core.LevelOS, PeriodUS: 1000},
		},
		WindowUS: 2000,
	}
}

// traceCapacity bounds the per-run event recorder, which is allocated
// whole for every smp run of a sweep. Generated cells record a few
// thousand events (at most 4435 over rand seeds 0-255 and burst seeds
// 0-63); the engine verifies nothing was dropped before correlating, so
// an undersized buffer is an explicit failure rather than a silent orphan
// source.
const traceCapacity = 1 << 15
