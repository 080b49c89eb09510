package flow_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/flow"
	"repro/internal/timing"
	"repro/internal/vp"
	"repro/internal/workloads"
)

// analyze assembles src under the platform prelude and runs the flow's
// static analysis with the given loop bounds and no inference.
func analyze(src string, prof *timing.Profile, bounds map[string]int) (*flow.Analysis, error) {
	prog, err := asm.AssembleAt(vp.Prelude+src, vp.RAMBase)
	if err != nil {
		return nil, err
	}
	return flow.Analyze(context.Background(), prog, prof, bounds, false)
}

func TestAnalyzeProducesAllArtifacts(t *testing.T) {
	w, _ := workloads.ByName("pid")
	a, err := analyze(w.Source, timing.EdgeSmall(), w.LoopBounds)
	if err != nil {
		t.Fatal(err)
	}
	if a.Program == nil || a.Graph == nil || a.Annotated == nil {
		t.Fatal("missing artifacts")
	}
	if a.Annotated.WCET == 0 || len(a.Annotated.Blocks) == 0 {
		t.Error("empty analysis")
	}
	if a.Annotated.Entry != a.Program.Entry {
		t.Error("entry mismatch between program and annotation")
	}
}

func TestAnalyzeReportsAssemblyErrors(t *testing.T) {
	if _, err := analyze("garbage op\n", timing.Unit(), nil); err == nil {
		t.Error("bad source should fail")
	}
}

func TestRunQTAReportsAssemblyErrors(t *testing.T) {
	w := workloads.Workload{Name: "bad", Source: "garbage op\n", Budget: 100}
	if _, err := flow.RunQTA(context.Background(), w, timing.Unit(), asm.Options{}); err == nil {
		t.Error("bad source should fail")
	}
}

func TestAnalyzeReportsMissingBounds(t *testing.T) {
	src := `
loop:	addi a0, a0, -1
	bnez a0, loop
	ebreak
`
	_, err := analyze(src, timing.Unit(), nil)
	if err == nil || !strings.Contains(err.Error(), "bound") {
		t.Errorf("err = %v", err)
	}
}

func TestRunQTAChecksChecksum(t *testing.T) {
	w, _ := workloads.ByName("xtea")
	w.Expect++ // sabotage the expectation
	if _, err := flow.RunQTA(context.Background(), w, timing.Unit(), asm.Options{}); err == nil {
		t.Error("checksum mismatch should be reported")
	}
}

func TestRunWithoutPlugins(t *testing.T) {
	w, _ := workloads.ByName("sort")
	p, stop, err := flow.RunWith(w, timing.EdgeFast())
	if err != nil {
		t.Fatal(err)
	}
	if stop.Reason != emu.StopExit || stop.Code != w.Expect {
		t.Errorf("stop = %v", stop)
	}
	if p.Machine.Hart.Cycle == 0 {
		t.Error("no cycles recorded")
	}
}
