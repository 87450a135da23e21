// Package sched implements the two-level parallelization of ATMULT
// (paper §III-F): one worker *team* per (simulated) socket, each team
// processing the tile-row/tile-column pairs whose A tile-row is homed on
// its socket (inter-tile parallelization), and the workers inside a team
// splitting the rows of a single tile multiplication among themselves
// (intra-tile parallelization). Spawning exactly one team per socket
// avoids last-level-cache pollution from unrelated tiles, which is the
// paper's stated reason for this resource split.
//
// Since the persistent-runtime rework, teams are long-lived: a process-wide
// Runtime per topology keeps Sockets × CoresPerSocket worker goroutines
// alive across calls (see runtime.go), mirroring the paper's reliance on
// SAP HANA's resident task framework. Pool remains the one-shot façade all
// operators use; it routes into the shared Runtime.
package sched

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"atmatrix/internal/numa"
)

// Task is one unit of inter-tile work: the computation of a single target
// tile C_{ti,tj}. It receives the team executing it so it can fan out its
// row range across the team's workers.
type Task func(team *Team)

// Team is a group of workers bound to one simulated socket.
type Team struct {
	// Socket is the simulated socket (and memory node) this team is
	// pinned to.
	Socket numa.Node
	// Workers is the number of threads in the team.
	Workers int
	// Grain is the minimum number of rows per worker in ParallelRows; a
	// range shorter than 2·Grain runs inline. Zero or one means no
	// constraint. The knob exists because tiny sparse tiles otherwise
	// over-parallelize — the hazard the paper notes for small blocks.
	Grain int

	// home links a runtime-backed team to its persistent workers; nil for
	// ad-hoc teams built by tests, which fall back to spawning.
	home *workerTeam
}

// WorkerLocal returns a pointer to the persistent storage slot of the given
// team-local worker index, or nil when the team is not backed by the
// persistent runtime. The slot is owned exclusively by the goroutine
// executing that worker's ParallelRows chunk (worker 0 additionally owns it
// for the whole task, since tasks run on the leader), so callers may use it
// without locking; the runtime's channel and WaitGroup handoffs order all
// accesses across goroutines.
func (t *Team) WorkerLocal(worker int) *any {
	if t.home == nil || worker < 0 || worker >= len(t.home.locals) {
		return nil
	}
	return &t.home.locals[worker]
}

// ParallelRows splits the half-open range [0, n) into one contiguous,
// balanced chunk per participating worker and runs f(lo, hi, worker)
// concurrently. Chunk sizes differ by at most one row, so a range slightly
// above the worker count no longer produces near-empty trailing chunks.
// The number of participants is additionally capped so that every chunk
// has at least Grain rows; with a single participant (or a trivially small
// range) f runs inline, avoiding fan-out overhead for tiny tiles.
func (t *Team) ParallelRows(n int, f func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	w := t.Workers
	if w > n {
		w = n
	}
	if g := t.Grain; g > 1 {
		if maxW := n / g; w > maxW {
			w = maxW
		}
	}
	if w <= 1 {
		f(0, n, 0)
		return
	}
	base, rem := n/w, n%w
	// Worker i gets base rows, the first rem workers one extra.
	first := base
	if rem > 0 {
		first++
	}
	if t.home != nil {
		// Persistent path: hand chunks 1..w-1 to the team's resident
		// helpers, run chunk 0 on the leader, then wait on the reusable
		// barrier. No goroutine is created. A panic in any chunk —
		// including the leader's own — is deferred past the barrier so the
		// reusable WaitGroup is never abandoned mid-count, then re-raised
		// for the task-level recovery to convert into a TaskPanicError.
		wg := &t.home.wg
		wg.Add(w - 1)
		lo := first
		for i := 1; i < w; i++ {
			sz := base
			if i < rem {
				sz++
			}
			t.home.jobCh <- rowJob{lo: lo, hi: lo + sz, worker: i, f: f, wg: wg}
			lo += sz
		}
		leaderP := runChunk(f, 0, first, 0)
		wg.Wait()
		if fp := t.home.fanoutPanic.Swap(nil); fp != nil {
			panic(fp)
		}
		if leaderP != nil {
			panic(leaderP)
		}
		return
	}
	// Ad-hoc path (teams built by tests): spawn per call, with the same
	// panic-past-the-barrier discipline.
	var wg sync.WaitGroup
	var shared atomic.Pointer[fanoutPanic]
	wg.Add(w - 1)
	lo := first
	for i := 1; i < w; i++ {
		sz := base
		if i < rem {
			sz++
		}
		go func(lo, hi, worker int) {
			defer wg.Done()
			if fp := runChunk(f, lo, hi, worker); fp != nil {
				shared.CompareAndSwap(nil, fp)
			}
		}(lo, lo+sz, i)
		lo += sz
	}
	leaderP := runChunk(f, 0, first, 0)
	wg.Wait()
	if fp := shared.Load(); fp != nil {
		panic(fp)
	}
	if leaderP != nil {
		panic(leaderP)
	}
}

// Pool runs per-team task queues. It is a thin adapter over the shared
// persistent Runtime of its topology; constructing a Pool is free and every
// current caller keeps its one-Pool-per-operator usage unchanged.
type Pool struct {
	topo numa.Topology
	// Stealing enables cross-team work stealing once a team's own queue
	// is drained. The paper pins pairs strictly to the socket owning the
	// A tile-row; stealing is an extension evaluated in the ablation
	// benchmarks.
	Stealing bool
	// RowGrain is the minimum number of rows per worker handed to
	// Team.ParallelRows (see Team.Grain).
	RowGrain int
	// Watchdog, when positive, is the per-task deadline: a task running
	// longer marks its team degraded and fails the run with a
	// *WatchdogError instead of blocking the caller forever. Zero
	// disables the watchdog.
	Watchdog time.Duration
}

// NewPool returns a pool over the given topology.
func NewPool(topo numa.Topology) *Pool {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	return &Pool{topo: topo}
}

// Topology returns the pool's topology.
func (p *Pool) Topology() numa.Topology { return p.topo }

// Run executes the queues: queues[s] holds the tasks affine to socket s.
// It blocks until every task has run exactly once (or the run failed). The
// error, when non-nil, is the run's first failure: a *TaskPanicError for a
// recovered task panic, a *WatchdogError for a task that overran the
// pool's watchdog, or ErrNoHealthyTeams. Queue indexes beyond the socket
// count are folded back round-robin.
func (p *Pool) Run(queues [][]Task) (RunStats, error) { return p.RunCtx(nil, queues) }

// RunCtx is Run with a cancellation context: a cancelled ctx stops the
// teams from picking up further tasks (in-flight tasks always finish). A
// nil ctx means an uncancellable run. Cancellation is reported by the
// caller inspecting ctx, not through the returned error.
func (p *Pool) RunCtx(ctx context.Context, queues [][]Task) (RunStats, error) {
	return RuntimeFor(p.topo).RunCtx(ctx, queues, p.runOpts())
}

// RunIndexed executes queues of item ids through one shared task function
// (see Runtime.RunIndexedCtx); queues[s] holds the items affine to socket
// s.
func (p *Pool) RunIndexed(queues [][]int32, run func(team *Team, item int32)) (RunStats, error) {
	return p.RunIndexedCtx(nil, queues, run)
}

// RunIndexedCtx is RunIndexed with a cancellation context (see RunCtx).
func (p *Pool) RunIndexedCtx(ctx context.Context, queues [][]int32, run func(team *Team, item int32)) (RunStats, error) {
	return RuntimeFor(p.topo).RunIndexedCtx(ctx, queues, run, p.runOpts())
}

func (p *Pool) runOpts() RunOpts {
	return RunOpts{Stealing: p.Stealing, Grain: p.RowGrain, Watchdog: p.Watchdog}
}

// RunFlat distributes a flat task list round-robin across sockets and
// runs it; a convenience for callers without placement information.
func (p *Pool) RunFlat(tasks []Task) (RunStats, error) {
	queues := make([][]Task, p.topo.Sockets)
	for i, t := range tasks {
		s := i % p.topo.Sockets
		queues[s] = append(queues[s], t)
	}
	return p.Run(queues)
}
