package fuzz

import "sync"

// workerPool is the persistent executor pool of the pipelined batched engine.
// The barrier engine it replaces spawned fresh goroutines per energy round and
// joined them with a WaitGroup before folding anything; the pool keeps one
// goroutine pinned to each warmed-up executor for the whole campaign, fed
// through a bounded job queue, so rounds pay no spawn/teardown cost and the
// coordinator overlaps folding with execution.
//
// Determinism is unaffected by the pool: jobs carry a slot index and a
// completion channel, the coordinator re-sequences completions through its
// reorder buffer, and executors are pure (sequence in, outcome out — the
// cache-transparency invariant guarantees checkpoint cache contents never
// change semantic outcomes). Which worker runs which job, and in what order
// results land, is invisible in every observable output.
type workerPool struct {
	jobs chan poolJob
	wg   sync.WaitGroup
	// size is the number of worker goroutines — the dispatch width the
	// speculative line search uses as its window.
	size int
}

// poolJob is one execution request: run seq against the round's seed table,
// write the outcome into *out, and signal idx on done. done channels are
// buffered to the full batch size by every dispatcher, so a worker's
// completion send never blocks — even when the coordinator has stopped
// draining a batch (a line search abandoning its speculative tail), the pool
// keeps flowing.
type poolJob struct {
	seq        Sequence
	seedPrefix []uint64
	out        *execOutcome
	idx        int
	done       chan<- int
}

// newWorkerPool starts one goroutine per executor. The queue is bounded at a
// small multiple of the pool size: deep enough that workers never starve
// while the coordinator folds, shallow enough that a cancelled campaign has
// little queued work to drain.
func newWorkerPool(execs []*executor) *workerPool {
	p := &workerPool{
		jobs: make(chan poolJob, 4*len(execs)),
		size: len(execs),
	}
	for _, x := range execs {
		p.wg.Add(1)
		go func(x *executor) {
			defer p.wg.Done()
			for j := range p.jobs {
				*j.out = x.run(j.seq, j.seedPrefix)
				j.done <- j.idx
			}
		}(x)
	}
	return p
}

// submit enqueues a job, blocking while the bounded queue is full.
func (p *workerPool) submit(j poolJob) { p.jobs <- j }

// shutdown closes the queue and joins every worker. The pool cannot be
// reused; RunSlice builds a fresh one per slice so no goroutines outlive a
// parked campaign.
func (p *workerPool) shutdown() {
	close(p.jobs)
	p.wg.Wait()
}
