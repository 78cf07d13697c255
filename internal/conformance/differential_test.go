package conformance_test

import (
	"context"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"embera/internal/conformance"
	"embera/internal/exp"
	"embera/internal/platform"
)

// failingSeed extracts the seed a sweep failure names.
var failingSeed = regexp.MustCompile(`^conformance: seed (-?\d+): `)

// sweepEachSeed runs spec's seeds [Start, Start+N) as parallel subtests
// named after the registry workload ("rand:7"), each a one-seed Sweep over
// every registered platform. Every cell runs the full per-cell battery —
// checksum equality everywhere, bit-identical rerun fingerprints on
// Deterministic platforms, per-interface flow conservation, per-component
// postconditions, monitor/observer agreement, the tail-latency battery,
// and complete kernel-copy correlation on simulated Linux. A failure must
// name its seed and end with the one-line repro rendered from the Spec.
func sweepEachSeed(t *testing.T, spec conformance.Spec) {
	if len(platform.Names()) < 3 {
		t.Fatalf("registered platforms = %v, want at least smp, sti7200, native", platform.Names())
	}
	for seed := spec.Start; seed < spec.Start+int64(spec.N); seed++ {
		one := spec
		one.Start, one.N = seed, 1
		t.Run(fmt.Sprintf("%s:%d", spec.Family, seed), func(t *testing.T) {
			t.Parallel()
			cells, err := conformance.Sweep(context.Background(), one)
			if err != nil {
				m := failingSeed.FindStringSubmatch(err.Error())
				if m == nil {
					t.Fatalf("failure does not name its seed: %v", err)
				}
				if got, _ := strconv.ParseInt(m[1], 10, 64); got != seed {
					t.Errorf("failure names seed %d, want %d", got, seed)
				}
				repro := fmt.Sprintf("\nrepro: embera-bench -exp DIFF -family %s -seed %d -seeds 1", spec.Family, seed)
				if spec.Migrate {
					repro += " -migrate"
				}
				if !strings.HasSuffix(err.Error(), repro) {
					t.Errorf("failure does not end with its repro line %q", repro)
				}
				t.Fatal(err)
			}
			if want := len(platform.Names()); cells != want {
				t.Errorf("sweep ran %d cells, want %d", cells, want)
			}
		})
	}
}

// TestDifferentialConformance is the acceptance battery for generated
// topologies: the same engine the nightly soak and `embera-bench -exp DIFF`
// run, one subtest per seed.
func TestDifferentialConformance(t *testing.T) {
	sweepEachSeed(t, conformance.Spec{Family: "rand", N: 64})
}

// TestDifferentialConformanceMigrated is the reconfiguration acceptance
// battery: the same seeds, each cell running under a seeded schedule of
// same-target migrate/reconnect points injected while the workload flows.
func TestDifferentialConformanceMigrated(t *testing.T) {
	sweepEachSeed(t, conformance.Spec{Family: "rand", Migrate: true, N: 64})
}

// TestDifferentialBurstConformance is the burst-family acceptance battery:
// open-loop arrivals whose tail latency the battery bounds on every cell.
func TestDifferentialBurstConformance(t *testing.T) {
	sweepEachSeed(t, conformance.Spec{Family: "burst", N: 16})
}

// TestDifferentialBurstConformanceMigrated runs the burst family under the
// migration scheduler: Migrate is independent of Family.
func TestDifferentialBurstConformanceMigrated(t *testing.T) {
	sweepEachSeed(t, conformance.Spec{Family: "burst", Migrate: true, N: 16})
}

// TestSweepChunksSeeds drives one multi-seed Sweep across a chunk boundary
// and checks every cell of every seed ran.
func TestSweepChunksSeeds(t *testing.T) {
	const seeds = 6
	cells, err := conformance.Sweep(context.Background(), conformance.Spec{Family: "rand", Start: 100, N: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if want := seeds * len(platform.Names()); cells != want {
		t.Errorf("sweep ran %d cells, want %d", cells, want)
	}
}

// TestSweepRejectsBadSpecs: a sweep over a typo is not a sweep. Unknown
// families and platforms fail up front with the registry listing, a
// non-positive seed count is refused, and a cancelled context runs nothing.
func TestSweepRejectsBadSpecs(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []conformance.Spec{
		{Family: "nosuch", N: 1},
		{Family: "rand", Platforms: []string{"vax"}, N: 1},
	} {
		if _, err := conformance.Sweep(ctx, spec); err == nil || !strings.Contains(err.Error(), "registered:") {
			t.Errorf("%+v: got %v, want a registry listing", spec, err)
		}
	}
	if _, err := conformance.Sweep(ctx, conformance.Spec{Family: "rand"}); err == nil {
		t.Error("sweep accepted zero seeds")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if cells, err := conformance.Sweep(cancelled, conformance.Spec{Family: "rand", N: 4}); err != context.Canceled || cells != 0 {
		t.Errorf("cancelled sweep: %d cells, %v", cells, err)
	}
}

// TestDifferentialRejectsMalformedSeedNames is the harness-side regression
// for family parsing: a malformed seed travelling the same exp.RunNamed
// path the sweep cells use must surface the uniform registry-listing error
// (the one every binary turns into an exit-2 usage failure), not reach a
// build or run.
func TestDifferentialRejectsMalformedSeedNames(t *testing.T) {
	_, err := exp.RunNamed("smp", "rand:bogus", exp.Options{})
	if err == nil {
		t.Fatal("malformed seed accepted")
	}
	if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("error lacks registry listing: %v", err)
	}
}

// TestDifferentialRejectsMalformedBurstSpecs is the harness-side regression
// for burst-family parsing: malformed specs travelling the same
// exp.RunNamed path the sweep cells use must surface the uniform
// registry-listing error (the one every binary turns into an exit-2 usage
// failure), not panic mid-run.
func TestDifferentialRejectsMalformedBurstSpecs(t *testing.T) {
	for _, name := range []string{
		"burst:rate=-1",
		"burst:rate=0",
		"burst:fanout=9,servers=2",
		"burst:mode=sawtooth",
		"burst:bogus=1",
		"burst:-3",
	} {
		_, err := exp.RunNamed("smp", name, exp.Options{})
		if err == nil {
			t.Fatalf("malformed spec %q accepted", name)
		}
		if !strings.Contains(err.Error(), "registered:") {
			t.Errorf("%q error lacks registry listing: %v", name, err)
		}
	}
}
