package main

import (
	"repro/internal/emu"
	"repro/internal/workloads"
)

// perLayer are the metrics every traced run reports, in the order
// BENCHMARK.json lists them. A workload that never reaches a layer
// reports that layer's metrics as 0.
var perLayer = buildPerLayer()

// faultOutcomes are the outcome names of fault.Outcome.String.
var faultOutcomes = []string{"masked", "sdc", "trapped", "hung", "errored", "latency-viol"}

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// firmware: engine execution
		{"emu.run_us", "us"},
		{"emu.mips.unit", "1/us"},
		{"emu.mips.edge-small", "1/us"},
	}
	for _, w := range append(workloads.All(), workloads.Interrupt()...) {
		defs = append(defs, metricDef{"emu.mips." + w.Name, "1/us"})
	}
	defs = append(defs, metricDef{"emu.mips.torture", "1/us"}, metricDef{"emu.pass_p99_ms", "ms"})
	for _, name := range emu.EngineNames() {
		defs = append(defs, metricDef{"emu.mips.engine." + name, "1/us"})
	}
	defs = append(defs,
		metricDef{"emu.tbs_compiled_per_pass", "count"},
		metricDef{"emu.jump_cache_hit_rate", "ratio"},
		metricDef{"emu.chain_follows_per_kinst", "count"},
		metricDef{"emu.trace_side_exit_rate", "ratio"},
		metricDef{"emu.translate_pass_ms", "ms"},
		metricDef{"vp.restore_us", "us"},
		metricDef{"vp.restore_bytes_per_run", "B"},

		// campaign: engine under rewinds, restore path, fault layer
		metricDef{"emu.tbs_compiled_per_mutant", "count"},
		metricDef{"emu.overlay_compiles_per_mutant", "count"},
		metricDef{"emu.pool_hit_ratio", "ratio"},
		metricDef{"emu.campaign_mips", "1/us"},
		metricDef{"vp.restore_bytes_per_mutant", "B"},
		metricDef{"vp.restore_pages_per_mutant", "count"},
		metricDef{"fault.prepare_ms", "ms"},
		metricDef{"fault.mutant_us", "us"},
	)
	for _, t := range campaignSpecs {
		defs = append(defs, metricDef{"fault.campaign_ms." + t.name, "ms"})
	}
	for _, o := range faultOutcomes {
		defs = append(defs, metricDef{"fault.share." + o, "ratio"})
	}
	defs = append(defs,
		// set-up: assembly and platform construction
		metricDef{"asm.assemble_ms", "ms"},
		metricDef{"vp.build_ms", "ms"},

		// service: queue, execution by job type, caches, client
		metricDef{"serve.submit_us", "us"},
		metricDef{"serve.queue_wait_p50_ms", "ms"},
		metricDef{"serve.queue_wait_p99_ms", "ms"},
	)
	for _, t := range jobTypes {
		defs = append(defs, metricDef{"serve.exec_ms." + t, "ms"})
	}
	for _, t := range jobTypes {
		defs = append(defs, metricDef{"serve.busy_share." + t, "ratio"})
	}
	defs = append(defs,
		metricDef{"serve.bin_cache_hit_ratio", "ratio"},
		metricDef{"serve.retries", "count"},
		metricDef{"serve.shed", "count"},
		metricDef{"client.observe_lag_ms", "ms"},

		// every workload: Go runtime and the tracing itself
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_per_op", "count"},
		metricDef{"runtime.page_faults_per_op", "count"},
		metricDef{"trace.overhead_pct", "%"},
		// the host gauge the end-to-end times are divided by
		metricDef{"bench.host_factor", "ratio"},
	)
	for _, l := range selfShareLayers {
		defs = append(defs, metricDef{"trace.self_share." + l, "ratio"})
	}
	return defs
}
