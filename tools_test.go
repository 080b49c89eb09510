package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildTools compiles every command once into a shared temp dir.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	tools := []string{
		"s4e-asm", "s4e-dis", "s4e-run", "s4e-cfg", "s4e-wcet", "s4e-qta",
		"s4e-cov", "s4e-fault", "s4e-torture", "s4e-experiments",
		"s4e-lint", "s4e-serve", "s4e-prune",
	}
	for _, tool := range tools {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func runTool(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s %v: %v\n%s", bin, args, err, out)
	}
	return string(out), code
}

const taskSource = `
_start:
	li a0, 0
	li a1, 16
loop:	add a0, a0, a1
	addi a1, a1, -1
	bnez a1, loop
	li t6, SYSCON_EXIT
	sw a0, 0(t6)
1:	j 1b
`

// TestToolchainEndToEnd drives the binaries the way the README shows:
// assemble, run, analyze, co-simulate, generate, qualify.
func TestToolchainEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "task.s")
	if err := os.WriteFile(src, []byte(taskSource), 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("asm+run-elf", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-asm"), "-o", filepath.Join(work, "task.elf"), src)
		if code != 0 {
			t.Fatalf("s4e-asm: %s", out)
		}
		// sum(1..16) = 136; s4e-run forwards the exit code (mod 128).
		out, code = runTool(t, filepath.Join(bin, "s4e-run"), filepath.Join(work, "task.elf"))
		if code != 136&0x7f {
			t.Fatalf("s4e-run exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "insts:") {
			t.Errorf("stats missing:\n%s", out)
		}
	})

	t.Run("disassemble", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-dis"), filepath.Join(work, "task.elf"))
		if code != 0 {
			t.Fatalf("s4e-dis (%d):\n%s", code, out)
		}
		for _, frag := range []string{"_start:", "loop:", "bne a1, zero", "<loop>"} {
			if !strings.Contains(out, frag) {
				t.Errorf("disassembly missing %q:\n%s", frag, out)
			}
		}
	})

	t.Run("run-source-with-trace", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-run"), "-itrace", "-profile", "edge-small", src)
		if code != 136&0x7f {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		if !strings.Contains(out, "add a0, a0, a1") {
			t.Errorf("trace missing:\n%s", out)
		}
	})

	t.Run("run-metrics-and-events", func(t *testing.T) {
		metrics := filepath.Join(work, "run-metrics.txt")
		events := filepath.Join(work, "run-events.jsonl")
		out, code := runTool(t, filepath.Join(bin, "s4e-run"),
			"-metrics", metrics, "-trace", events, src)
		if code != 136&0x7f {
			t.Fatalf("exit %d:\n%s", code, out)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{"s4e_emu_tbs_compiled_total", "s4e_emu_jump_cache_hit_rate", "s4e_bus_fetches_total"} {
			if !strings.Contains(string(data), frag) {
				t.Errorf("metrics file missing %q:\n%s", frag, data)
			}
		}
		ev, err := os.ReadFile(events)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(ev), `"run-start"`) || !strings.Contains(string(ev), `"run-end"`) {
			t.Errorf("event trace missing run framing:\n%s", ev)
		}
	})

	t.Run("exit-codes", func(t *testing.T) {
		// A guest exit code that is a nonzero multiple of 128 must not
		// collapse to success under the 7-bit mask.
		wrap := filepath.Join(work, "wrap.s")
		prog := "_start:\n\tli a0, 128\n\tli t6, SYSCON_EXIT\n\tsw a0, 0(t6)\n1:\tj 1b\n"
		if err := os.WriteFile(wrap, []byte(prog), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := runTool(t, filepath.Join(bin, "s4e-run"), wrap)
		if code != 1 {
			t.Errorf("guest exit 128: host exit %d, want 1:\n%s", code, out)
		}
		// Usage errors (bad flag values) exit 2, runtime failures exit 1.
		if _, code := runTool(t, filepath.Join(bin, "s4e-run"), "-profile", "nope", src); code != 2 {
			t.Errorf("bad -profile: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-run"), "-engine", "nope", src); code != 2 {
			t.Errorf("bad -engine: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-qta"), "-profile", "nope", src); code != 2 {
			t.Errorf("s4e-qta bad -profile: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-wcet"), "-bounds", "garbage", src); code != 2 {
			t.Errorf("s4e-wcet bad -bounds: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-lint"), "-min", "nope", src); code != 2 {
			t.Errorf("s4e-lint bad -min: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-torture"), "-isa", "nope"); code != 2 {
			t.Errorf("s4e-torture bad -isa: exit %d, want 2", code)
		}
		if _, code := runTool(t, filepath.Join(bin, "s4e-run"), filepath.Join(work, "missing.s")); code != 1 {
			t.Errorf("missing input: exit %d, want 1", code)
		}
	})

	t.Run("wcet+qta", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-wcet"),
			"-bounds", "loop=16", "-profile", "edge-small", src)
		if code != 0 || !strings.Contains(out, "WCET bound:") {
			t.Fatalf("s4e-wcet (%d):\n%s", code, out)
		}
		out, code = runTool(t, filepath.Join(bin, "s4e-qta"), "-profile", "edge-small",
			"-blockprofile", src)
		if code != 0 {
			t.Fatalf("s4e-qta (%d):\n%s", code, out)
		}
		if !strings.Contains(out, "sound: true") {
			t.Errorf("qta not sound:\n%s", out)
		}
		if !strings.Contains(out, "visits") {
			t.Errorf("block profile missing:\n%s", out)
		}
	})

	t.Run("cfg-dot", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-cfg"), src)
		if code != 0 || !strings.Contains(out, "digraph cfg") {
			t.Fatalf("s4e-cfg (%d):\n%s", code, out)
		}
		out, code = runTool(t, filepath.Join(bin, "s4e-cfg"),
			"-annotate", "-bounds", "loop=16", src)
		if code != 0 || !strings.Contains(out, "loop head (depth 1): bound 16 (user)") {
			t.Fatalf("s4e-cfg -annotate (%d):\n%s", code, out)
		}
	})

	t.Run("cfg-indirect-call", func(t *testing.T) {
		// A call through a register (la + jalr) is an edge of the closed
		// graph, so the helper is a block, not unreachable code.
		prog := filepath.Join(work, "icall.s")
		icall := "_start:\n\tli a0, 0\n\tla t0, helper\n\tjalr ra, t0, 0\n" +
			"\tli t6, SYSCON_EXIT\n\tsw a0, 0(t6)\n1:\tj 1b\n" +
			"helper:\n\taddi a0, a0, 42\n\tret\n"
		if err := os.WriteFile(prog, []byte(icall), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code := runTool(t, filepath.Join(bin, "s4e-cfg"), "-annotate", prog)
		if code != 0 {
			t.Fatalf("s4e-cfg -annotate (%d):\n%s", code, out)
		}
		if !strings.Contains(out, "helper:") || !strings.Contains(out, `label="call"`) {
			t.Errorf("helper missing from the annotated graph:\n%s", out)
		}
		if strings.Contains(out, "unreachable") {
			t.Errorf("unreachable finding on a resolved call:\n%s", out)
		}
	})

	t.Run("lint", func(t *testing.T) {
		// The task program is clean at the definite level; its trailing
		// spin loop is reported as a possible finding only.
		out, code := runTool(t, filepath.Join(bin, "s4e-lint"), "-bounds", "loop=16", src)
		if code != 0 {
			t.Fatalf("s4e-lint on clean program (%d):\n%s", code, out)
		}
		if !strings.Contains(out, "findings") {
			t.Errorf("summary missing:\n%s", out)
		}

		buggy := filepath.Join(work, "buggy.s")
		if err := os.WriteFile(buggy, []byte("\tadd a0, a1, a2\n\tebreak\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out, code = runTool(t, filepath.Join(bin, "s4e-lint"), buggy)
		if code != 1 {
			t.Fatalf("s4e-lint on buggy program: exit %d, want 1:\n%s", code, out)
		}
		if !strings.Contains(out, "uninit-read") {
			t.Errorf("uninit-read finding missing:\n%s", out)
		}

		// Machine-readable output: same failing program, JSON document.
		out, code = runTool(t, filepath.Join(bin, "s4e-lint"), "-json", buggy)
		if code != 1 {
			t.Fatalf("s4e-lint -json: exit %d, want 1:\n%s", code, out)
		}
		if !strings.Contains(out, `"check": "uninit-read"`) || !strings.Contains(out, `"failing"`) {
			t.Errorf("JSON findings missing:\n%s", out)
		}
	})

	t.Run("prune", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-prune"), "-funcs", src)
		if code != 0 {
			t.Fatalf("s4e-prune (%d):\n%s", code, out)
		}
		for _, want := range []string{"extensions", "rv32e", "stack bound", "sound       yes"} {
			if !strings.Contains(out, want) {
				t.Errorf("report missing %q:\n%s", want, out)
			}
		}
		out, code = runTool(t, filepath.Join(bin, "s4e-prune"), "-json", src)
		if code != 0 || !strings.Contains(out, `"sound": true`) {
			t.Fatalf("s4e-prune -json (%d):\n%s", code, out)
		}
	})

	t.Run("torture-roundtrip", func(t *testing.T) {
		dir := filepath.Join(work, "torture")
		out, code := runTool(t, filepath.Join(bin, "s4e-torture"), "-n", "2", "-dir", dir)
		if code != 0 {
			t.Fatalf("s4e-torture (%d):\n%s", code, out)
		}
		prog := filepath.Join(dir, "torture-0000.s")
		out, code = runTool(t, filepath.Join(bin, "s4e-run"), prog)
		if strings.Contains(out, "unhandled trap") {
			t.Errorf("torture program trapped:\n%s", out)
		}
	})

	t.Run("coverage-of-file", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-cov"), "-isa", "rv32im", "-missing", src)
		if code != 0 || !strings.Contains(out, "insn types") {
			t.Fatalf("s4e-cov (%d):\n%s", code, out)
		}
		out, code = runTool(t, filepath.Join(bin, "s4e-cov"), "-isa", "rv32im", "-ext", src)
		if code != 0 || !strings.Contains(out, "M ") {
			t.Fatalf("s4e-cov -ext missing group rows (%d):\n%s", code, out)
		}
		// s4e-cov accepts every ISA name s4e-run does.
		for _, name := range []string{"rv32imfc", "rv32full", "RV32IM"} {
			if out, code := runTool(t, filepath.Join(bin, "s4e-cov"), "-isa", name, src); code != 0 {
				t.Errorf("s4e-cov -isa %s (%d):\n%s", name, code, out)
			}
			if out, code := runTool(t, filepath.Join(bin, "s4e-run"), "-isa", name, src); code != 136&0x7f {
				t.Errorf("s4e-run -isa %s (%d):\n%s", name, code, out)
			}
		}
	})

	t.Run("fault-campaign", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-fault"),
			"-gpr", "20", "-mem", "5", "-code", "5", src)
		if code != 0 {
			t.Fatalf("s4e-fault (%d):\n%s", code, out)
		}
		if !strings.Contains(out, "masked") || !strings.Contains(out, "mutants/sec") {
			t.Errorf("campaign output:\n%s", out)
		}

		metrics := filepath.Join(work, "fault-metrics.txt")
		out, code = runTool(t, filepath.Join(bin, "s4e-fault"),
			"-gpr", "10", "-mem", "2", "-code", "2", "-workers", "2",
			"-metrics", metrics, "-progress", src)
		if code != 0 {
			t.Fatalf("s4e-fault -metrics (%d):\n%s", code, out)
		}
		if !strings.Contains(out, "fault: ") || !strings.Contains(out, "(100.0%)") {
			t.Errorf("live progress line missing:\n%s", out)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		for _, frag := range []string{
			`s4e_fault_mutants_total{outcome="masked"}`,
			"s4e_fault_mutants_per_sec",
			"s4e_emu_jump_cache_hit_rate",
		} {
			if !strings.Contains(string(data), frag) {
				t.Errorf("fault metrics missing %q:\n%s", frag, data)
			}
		}
	})

	t.Run("cpuprofile", func(t *testing.T) {
		for _, c := range []struct {
			tool string
			args []string
			exit int
		}{
			{"s4e-run", []string{src}, 136 & 0x7f},
			{"s4e-fault", []string{"-gpr", "5", "-mem", "1", "-code", "1", src}, 0},
		} {
			prof := filepath.Join(work, c.tool+".cpu")
			out, code := runTool(t, filepath.Join(bin, c.tool), append([]string{"-cpuprofile", prof}, c.args...)...)
			if code != c.exit {
				t.Fatalf("%s -cpuprofile: exit %d, want %d:\n%s", c.tool, code, c.exit, out)
			}
			data, err := os.ReadFile(prof)
			if err != nil {
				t.Fatal(err)
			}
			// A pprof profile is a gzip-compressed protobuf.
			if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
				t.Errorf("%s: %s is not a pprof profile (%d bytes)", c.tool, prof, len(data))
			}
		}
	})

	t.Run("experiments-e1", func(t *testing.T) {
		out, code := runTool(t, filepath.Join(bin, "s4e-experiments"), "-exp", "e1")
		if code != 0 || !strings.Contains(out, "component inventory") {
			t.Fatalf("s4e-experiments (%d):\n%s", code, out)
		}
	})

	t.Run("error-paths", func(t *testing.T) {
		if _, code := runTool(t, filepath.Join(bin, "s4e-asm"), filepath.Join(work, "missing.s")); code == 0 {
			t.Error("missing input should fail")
		}
		bad := filepath.Join(work, "bad.s")
		os.WriteFile(bad, []byte("bogus a0\n"), 0o644)
		if out, code := runTool(t, filepath.Join(bin, "s4e-asm"), bad); code == 0 {
			t.Errorf("bad assembly should fail:\n%s", out)
		}
		for _, id := range []string{"e3", "e6", "e8", "e99"} {
			out, code := runTool(t, filepath.Join(bin, "s4e-experiments"), "-exp", id)
			if code != 2 || !strings.Contains(out, "e1, e2") {
				t.Errorf("s4e-experiments -exp %s: exit %d, want 2 naming the valid ids:\n%s", id, code, out)
			}
		}
		// Only s4e-fault reports live progress; the run tools have no
		// second run loop to select.
		for _, tool := range []string{"s4e-run", "s4e-qta"} {
			out, code := runTool(t, filepath.Join(bin, tool), "-progress", src)
			if code != 2 || !strings.Contains(out, "-progress") {
				t.Errorf("%s -progress: exit %d, want 2 for an unknown flag:\n%s", tool, code, out)
			}
		}
	})
}
