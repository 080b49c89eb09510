package vp

import "repro/internal/obs"

// Engine and bus metric names recorded by RecordStats. Exported so the
// tools and tests reference one spelling.
const (
	MetricTBsCompiled      = "s4e_emu_tbs_compiled_total"
	MetricTBsInvalidated   = "s4e_emu_tbs_invalidated_total"
	MetricJumpCacheHits    = "s4e_emu_jump_cache_hits_total"
	MetricJumpCacheMisses  = "s4e_emu_jump_cache_misses_total"
	MetricJumpCacheHitRate = "s4e_emu_jump_cache_hit_rate"
	MetricChainFollows     = "s4e_emu_chain_follows_total"
	MetricIRQFullPolls     = "s4e_emu_irq_full_polls_total"
	MetricIdleInsts        = "s4e_emu_idle_insts_total"
	MetricChainsSevered    = "s4e_emu_chains_severed_total"
	MetricPoolHits         = "s4e_emu_pool_hits_total"
	MetricPoolMisses       = "s4e_emu_pool_misses_total"
	MetricOverlayCompiles  = "s4e_emu_overlay_compiles_total"
	MetricTracesFormed     = "s4e_emu_trace_formed_total"
	MetricTraceRuns        = "s4e_emu_trace_retired_total"
	MetricTraceSideExits   = "s4e_emu_trace_side_exits_total"
	MetricTracesDropped    = "s4e_emu_trace_invalidated_total"
	MetricTracePoolHits    = "s4e_emu_trace_pool_hits_total"
	MetricInsts            = "s4e_emu_instructions_retired_total"
	MetricCycles           = "s4e_emu_cycles_total"
	MetricBusFetches       = "s4e_bus_fetches_total"
	MetricBusLoads         = "s4e_bus_loads_total"
	MetricBusStores        = "s4e_bus_stores_total"
	MetricBusFaults        = "s4e_bus_faults_total"

	// Restore (platform rewind) metrics: totals folded in by
	// RecordStats, per-restore distributions recorded live through
	// AttachRestoreObs.
	MetricRestores          = "s4e_fault_restores_total"
	MetricRestoreBytesTotal = "s4e_fault_restore_bytes_total"
	MetricRestorePagesTotal = "s4e_fault_restore_pages_total"
	MetricRestoreBytes      = "s4e_fault_restore_bytes"
	MetricRestorePages      = "s4e_fault_restore_pages"
)

// Bucket bounds for the per-restore distributions: bytes span one
// scattered word up to the full default RAM; pages span one dirty page
// up to half the default RAM's page count.
var (
	restoreBytesBounds = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
	restorePagesBounds = []float64{1, 2, 4, 8, 16, 32, 64, 256, 1024, 4096}
)

// AttachRestoreObs connects the platform's restore path to the registry:
// every subsequent RestoreReuse observes its copied bytes and dirty
// pages into the MetricRestoreBytes / MetricRestorePages
// histograms. Totals are still accumulated locally and folded in by
// RecordStats, so attaching is optional (fault-campaign workers attach;
// one-shot runs usually do not). A nil registry detaches.
func (p *Platform) AttachRestoreObs(r *obs.Registry) {
	if r == nil {
		p.hRestoreBytes, p.hRestorePages = nil, nil
		return
	}
	p.hRestoreBytes = r.Histogram(MetricRestoreBytes, "RAM bytes copied per platform restore", restoreBytesBounds)
	p.hRestorePages = r.Histogram(MetricRestorePages, "dirty pages copied per platform restore", restorePagesBounds)
}

// noteRestore accounts one platform rewind.
func (p *Platform) noteRestore(nbytes, pages uint64) {
	p.restores++
	p.restoreBytes += nbytes
	p.restorePages += pages
	p.hRestoreBytes.Observe(float64(nbytes))
	p.hRestorePages.Observe(float64(pages))
}

// RestoreStats reports the platform's lifetime restore accounting.
type RestoreStats struct {
	Restores     uint64 // RestoreReuse calls
	RestoreBytes uint64 // RAM bytes actually copied across them
	RestorePages uint64 // dirty pages those bytes spanned
}

// RestoreStats returns a snapshot of the restore accounting.
func (p *Platform) RestoreStats() RestoreStats {
	return RestoreStats{
		Restores:     p.restores,
		RestoreBytes: p.restoreBytes,
		RestorePages: p.restorePages,
	}
}

// RecordStats folds the platform's engine and memory-bus counters into
// the registry. Counters are additive, so recording several platforms
// (fault-campaign workers) accumulates fleet totals; the jump-cache
// hit-rate gauge is recomputed from the accumulated counters on every
// call, so the last call leaves the overall rate. Call it once per
// platform, after the run. A nil registry is a no-op.
func (p *Platform) RecordStats(r *obs.Registry) {
	if r == nil {
		return
	}
	es := p.Machine.Stats()
	r.Counter(MetricTBsCompiled, "translated blocks compiled").Add(es.TBsCompiled)
	r.Counter(MetricTBsInvalidated, "translated blocks invalidated").Add(es.TBsInvalidated)
	r.Counter(MetricJumpCacheHits, "jump cache hits").Add(es.JumpCacheHits)
	r.Counter(MetricJumpCacheMisses, "jump cache misses").Add(es.JumpCacheMisses)
	r.Counter(MetricChainFollows, "block transitions via chain links").Add(es.ChainFollows)
	r.Counter(MetricIRQFullPolls, "interrupt polls that asked the devices").Add(es.FullPolls)
	r.Counter(MetricIdleInsts, "instructions retired by fast-forwarding idle loops").Add(es.IdleInsts)
	r.Counter(MetricChainsSevered, "chain links severed by invalidation").Add(es.ChainsSevered)
	r.Counter(MetricPoolHits, "blocks adopted from the shared translation pool").Add(es.PoolHits)
	r.Counter(MetricPoolMisses, "translations of pcs the shared pool does not cover").Add(es.PoolMisses)
	r.Counter(MetricOverlayCompiles, "private overlay compiles over mutated pool ranges").Add(es.OverlayCompiles)
	r.Counter(MetricTracesFormed, "superblock traces formed").Add(es.TracesFormed)
	r.Counter(MetricTraceRuns, "superblock trace executions retired in full").Add(es.TraceRuns)
	r.Counter(MetricTraceSideExits, "superblock trace side exits").Add(es.TraceSideExits)
	r.Counter(MetricTracesDropped, "superblock traces invalidated or banned").Add(es.TracesInvalidated)
	r.Counter(MetricTracePoolHits, "traces adopted from the shared pool's frozen tier").Add(es.TracePoolHits)
	r.Counter(MetricInsts, "instructions retired").Add(p.Machine.Hart.Instret)
	r.Counter(MetricCycles, "modelled cycles").Add(p.Machine.Hart.Cycle)

	r.Counter(MetricRestores, "platform rewinds (RestoreReuse)").Add(p.restores)
	r.Counter(MetricRestoreBytesTotal, "RAM bytes copied by platform rewinds").Add(p.restoreBytes)
	r.Counter(MetricRestorePagesTotal, "dirty pages copied by platform rewinds").Add(p.restorePages)

	bs := p.Machine.Bus.Stats()
	r.Counter(MetricBusFetches, "bus instruction fetches (16-bit parcels)").Add(bs.Fetches)
	r.Counter(MetricBusLoads, "bus data loads (direct-RAM fast path excluded)").Add(bs.Loads)
	r.Counter(MetricBusStores, "bus data stores (direct-RAM fast path excluded)").Add(bs.Stores)
	r.Counter(MetricBusFaults, "bus accesses that faulted").Add(bs.Faults)

	hits := r.Counter(MetricJumpCacheHits, "").Value()
	misses := r.Counter(MetricJumpCacheMisses, "").Value()
	if total := hits + misses; total > 0 {
		r.Gauge(MetricJumpCacheHitRate, "jump cache hits / lookups").
			Set(float64(hits) / float64(total))
	}
}
