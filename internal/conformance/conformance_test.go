package conformance_test

import (
	"testing"

	"embera/internal/conformance"
	"embera/internal/exp"
	"embera/internal/platform"

	// Workload registrations for the matrix battery.
	_ "embera/internal/mjpegapp"
	_ "embera/internal/pipelineapp"
)

// TestWorkloadMatrix runs every registered workload on every registered
// platform twice. On deterministic (virtual-time) platforms the two runs
// of a cell must be bit-identical down to every timing in every report; on
// wall-clock platforms timings legitimately differ between runs, so only
// the result checksum and unit count are asserted. Across platforms a
// workload's checksum must always agree (portability) — that includes the
// native platform reproducing the simulators' checksums.
func TestWorkloadMatrix(t *testing.T) {
	type cell struct {
		platform    string
		fingerprint uint64
		checksum    uint64
		units       int
	}
	run := func(t *testing.T, p platform.Platform, wn string) cell {
		t.Helper()
		r, err := exp.Run(p, platform.MustGetWorkload(wn), exp.Options{Options: platform.Options{Scale: 8}})
		if err != nil {
			t.Fatalf("%s × %s: %v", p.Name(), wn, err)
		}
		fp, err := conformance.Fingerprint(r)
		if err != nil {
			t.Fatalf("%s × %s: %v", p.Name(), wn, err)
		}
		return cell{p.Name(), fp, r.Instance.Checksum(), r.Instance.Units()}
	}
	for _, wn := range platform.WorkloadNames() {
		t.Run(wn, func(t *testing.T) {
			var cells []cell
			for _, pn := range platform.Names() {
				p := platform.MustGet(pn)
				first, second := run(t, p, wn), run(t, p, wn)
				if p.Deterministic() && first.fingerprint != second.fingerprint {
					t.Errorf("%s × %s: nondeterministic reports: %016x vs %016x",
						pn, wn, first.fingerprint, second.fingerprint)
				}
				if first.checksum != second.checksum || first.units != second.units {
					t.Errorf("%s × %s: nondeterministic results: %016x/%d vs %016x/%d",
						pn, wn, first.checksum, first.units, second.checksum, second.units)
				}
				if first.units == 0 {
					t.Errorf("%s × %s: no work done", pn, wn)
				}
				cells = append(cells, first)
			}
			for _, c := range cells[1:] {
				if c.checksum != cells[0].checksum {
					t.Errorf("checksum differs across platforms: %s %016x vs %s %016x",
						c.platform, c.checksum, cells[0].platform, cells[0].checksum)
				}
				if c.units != cells[0].units {
					t.Errorf("units differ across platforms: %s %d vs %s %d",
						c.platform, c.units, cells[0].platform, cells[0].units)
				}
			}
		})
	}
}
