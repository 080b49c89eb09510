package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"

	"repro/internal/fault"
)

// shardCount clamps a requested shard count to the plan size (a shard
// must own at least one mutant).
func shardCount(k, mutants int) int {
	if k > mutants {
		k = mutants
	}
	if k < 1 {
		k = 1
	}
	return k
}

// shardRanges splits n mutant indices into k contiguous [lo,hi) ranges
// differing in size by at most one — the deterministic tiling both the
// executor and the merge rely on.
func shardRanges(n, k int) [][2]int {
	out := make([][2]int, k)
	base, rem := n/k, n%k
	lo := 0
	for i := 0; i < k; i++ {
		size := base
		if i < rem {
			size++
		}
		out[i] = [2]int{lo, lo + size}
		lo += size
	}
	return out
}

// noteProgress publishes a whole-campaign progress snapshot on the
// job's event stream (the unsharded path's OnProgress target).
func (s *Server) noteProgress(j *Job, done, total uint64) {
	s.mu.Lock()
	j.progress = &Progress{Done: done, Total: total}
	j.emitLocked("progress", j.progress)
	s.mu.Unlock()
}

// noteShard updates one shard's slice of the job's progress — state
// and/or mutants-done — recomputes the campaign total, and re-emits the
// progress event.
func (s *Server) noteShard(j *Job, i int, state string, done uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.progress == nil || i >= len(j.progress.Shards) {
		return
	}
	p := j.progress.clone()
	if state != "" {
		p.Shards[i].State = state
	}
	if done > p.Shards[i].Done {
		p.Shards[i].Done = done
	}
	p.Done = 0
	for _, sp := range p.Shards {
		p.Done += sp.Done
	}
	j.progress = p
	j.emitLocked("progress", p)
}

// runShardedCampaign executes a fault campaign as k contiguous
// plan-range sub-jobs on the server's pending list, then merges the
// per-range results with fault.MergeShards — bit-identical to the
// unsharded campaign, since mutants are classified independently
// against the shared golden. The coordinating worker never parks idle:
// until its last shard finishes it keeps popping the list in FIFO order
// (its own shards, other campaigns' shards, or whole jobs), so
// coordinators cannot deadlock the pool however many campaigns shard at
// once.
func (s *Server) runShardedCampaign(ctx context.Context, j *Job, tg *fault.Target, plan fault.Plan, o fault.Options, k int) (*fault.Results, error) {
	ranges := shardRanges(len(plan.Faults), k)
	parts := make([]*fault.Results, k)
	errs := make([]error, k)
	offsets := make([]int, k)
	remaining := k // guarded by s.mu

	mkRun := func(i int) func() {
		lo, hi := ranges[i][0], ranges[i][1]
		offsets[i] = lo
		return func() {
			defer func() {
				s.mu.Lock()
				remaining--
				s.ready.Broadcast() // wake the coordinator
				s.mu.Unlock()
			}()
			defer func() {
				if r := recover(); r != nil {
					s.mPanics.Inc()
					errs[i] = fmt.Errorf("shard %d panicked: %v\n%s", i, r, debug.Stack())
				}
			}()
			s.noteShard(j, i, "running", 0)
			so := o // per-shard copy: each shard reports its own progress
			so.OnProgress = func(d, _ uint64) { s.noteShard(j, i, "", d) }
			parts[i], errs[i] = fault.CampaignContext(ctx, tg, plan.Range(lo, hi), so)
			s.noteShard(j, i, "done", uint64(hi-lo))
		}
	}

	s.mu.Lock()
	prog := &Progress{Total: uint64(len(plan.Faults)), Shards: make([]ShardProgress, k)}
	for i, r := range ranges {
		prog.Shards[i] = ShardProgress{Shard: i, Lo: r[0], Hi: r[1], State: "queued"}
		s.pushLocked(&Job{ID: fmt.Sprintf("%s.shard%d", j.ID, i), Type: "fault-shard", shardRun: mkRun(i)})
	}
	j.progress = prog
	j.emitLocked("progress", prog.clone())
	s.mu.Unlock()
	s.reg.Counter("s4e_serve_shards_total", "campaign shards executed").Add(uint64(k))

	s.serve(func() bool { return remaining == 0 })

	merged, err := fault.MergeShards(plan, offsets, parts)
	if err != nil {
		return nil, errors.Join(append(errs, err)...)
	}
	return merged, errors.Join(errs...)
}
