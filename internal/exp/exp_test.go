package exp_test

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/fault"
	"repro/internal/isa"
	"repro/internal/timing"
)

func TestE1ListsEveryComponent(t *testing.T) {
	out := exp.E1Inventory()
	for _, frag := range []string{"internal/emu", "internal/qta", "internal/wcet",
		"internal/fault", "internal/cover", "internal/torture"} {
		if !strings.Contains(out, frag) {
			t.Errorf("inventory missing %s", frag)
		}
	}
}

func TestE2AllSound(t *testing.T) {
	rows, table, err := exp.E2QTA(timing.EdgeSmall())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 {
		t.Fatalf("only %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Sound() {
			t.Errorf("%s unsound: %+v", r.Program, r)
		}
	}
	if !strings.Contains(table, "static/dyn") {
		t.Error("table header missing")
	}
}

func TestE4ShapesHold(t *testing.T) {
	rows, _, err := exp.E4Coverage(isa.RV32IM)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]exp.CoverageRow{}
	for _, r := range rows {
		byName[r.Suite] = r
	}
	arch, tor, union := byName["architectural"], byName["torture"], byName["union"]
	if arch.Report.GPRCovered >= tor.Report.GPRCovered {
		t.Error("architectural should touch fewer GPRs than torture")
	}
	if tor.Report.OpsCovered >= arch.Report.OpsCovered {
		t.Error("torture should cover fewer op types than architectural")
	}
	if union.Report.GPRCovered != 32 {
		t.Errorf("union GPR = %d", union.Report.GPRCovered)
	}
}

func TestE5KeyFaultsAreNeverMasked(t *testing.T) {
	res, table, err := exp.E5Faults("xtea", 60)
	if err != nil {
		t.Fatal(err)
	}
	mem := res.ByModel[fault.MemPermanent]
	if mem[fault.Masked] != 0 {
		t.Errorf("stuck bits in the XTEA key were masked: %v", mem)
	}
	if !strings.Contains(table, "mutants") {
		t.Error("table header missing")
	}
}

func TestE7PopcountWinsBig(t *testing.T) {
	rows, _, err := exp.E7BMI(timing.EdgeSmall())
	if err != nil {
		t.Fatal(err)
	}
	var pop *exp.SpeedupRow
	for i, r := range rows {
		if r.Kernel == "popcount" {
			pop = &rows[i]
		}
		if r.Speedup <= 1 {
			t.Errorf("%s: BMI not faster (%.2f)", r.Kernel, r.Speedup)
		}
	}
	if pop == nil || pop.Speedup < 3 {
		t.Errorf("popcount speedup should be the headline (>3x): %+v", pop)
	}
}

func TestAllSelectsExperiments(t *testing.T) {
	out, err := exp.All([]string{"e1", "e7"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "E1:") || !strings.Contains(out, "E7:") {
		t.Error("selected experiments missing")
	}
	if strings.Contains(out, "E5:") {
		t.Error("unselected experiment ran")
	}
}

func TestAllRejectsUnknownIDs(t *testing.T) {
	// e3, e6 and e8 (instrumentation overhead, campaign throughput and
	// emulation speed) are measured by the repository benchmark and the
	// go test benchmarks, so they are as unknown here as an id that
	// never existed.
	for _, id := range []string{"e99", "e3", "e6", "e8"} {
		out, err := exp.All([]string{"e1", id})
		if !errors.Is(err, exp.ErrUnknownID) {
			t.Fatalf("All(e1, %s) = %v, want ErrUnknownID", id, err)
		}
		if out != "" {
			t.Errorf("All(e1, %s) ran experiments before rejecting:\n%s", id, out)
		}
		for _, valid := range exp.IDs {
			if !strings.Contains(err.Error(), valid) {
				t.Errorf("error %q does not name valid id %s", err, valid)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/all.txt")

// TestAllGolden pins every table s4e-experiments prints: each one is
// deterministic, so any drift in a regenerated figure is a failure to
// explain (or to accept with -update).
func TestAllGolden(t *testing.T) {
	got, err := exp.All(nil)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "all.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("experiment tables drifted from %s (run with -update to regenerate):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}
