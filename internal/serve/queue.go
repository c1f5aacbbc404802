package serve

import (
	"fmt"
	"sync"
)

// Class is a scheduling class. Interactive jobs are dequeued strictly
// before batch jobs: the pool keeps small latency-sensitive requests
// flowing even while big background syntheses saturate it. Batch jobs can
// be starved by a sustained interactive flood — by design; the interactive
// queue is small, so the flood itself sheds first.
type Class int

const (
	// Interactive is the latency-sensitive class (the default).
	Interactive Class = iota
	// Batch is the throughput class: big budgets, shed-tolerant.
	Batch
	numClasses
)

func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

func parseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	default:
		return 0, fmt.Errorf("unknown class %q (want \"interactive\" or \"batch\")", s)
	}
}

// FullError is the backpressure signal: the class's queue is at capacity
// and the job was shed. The HTTP layer maps it to 429 + Retry-After.
type FullError struct {
	Class Class
	Cap   int
}

func (e *FullError) Error() string {
	return fmt.Sprintf("serve: %s queue full (%d jobs)", e.Class, e.Cap)
}

// errQueueClosed is returned by Enqueue after the queue is closed (drain).
var errQueueClosed = fmt.Errorf("serve: queue closed")

// jobQueue is the bounded two-class FIFO feeding the worker pool. Enqueue
// never blocks: a full class sheds immediately (backpressure belongs at the
// edge, not in a hidden unbounded buffer). Dequeue blocks until a job or
// Close, always preferring the interactive class.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	q      [numClasses][]*Job
	cap    [numClasses]int
	closed bool
}

func newJobQueue(capInteractive, capBatch int) *jobQueue {
	q := &jobQueue{}
	q.cap[Interactive] = capInteractive
	q.cap[Batch] = capBatch
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Enqueue appends j to its class queue, or sheds with *FullError when the
// class is at capacity (errQueueClosed after Close).
func (q *jobQueue) Enqueue(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return errQueueClosed
	}
	c := j.c.class
	if len(q.q[c]) >= q.cap[c] {
		return &FullError{Class: c, Cap: q.cap[c]}
	}
	q.q[c] = append(q.q[c], j)
	q.cond.Signal()
	return nil
}

// Dequeue blocks until a job is available (interactive first, FIFO within a
// class) or the queue is closed. ok is false only on close; jobs still
// queued at close time are left in place for drainAll.
func (q *jobQueue) Dequeue() (j *Job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return nil, false
		}
		for c := Class(0); c < numClasses; c++ {
			if len(q.q[c]) > 0 {
				j := q.q[c][0]
				q.q[c] = q.q[c][1:]
				return j, true
			}
		}
		q.cond.Wait()
	}
}

// Close stops the queue: blocked Dequeues return, later Enqueues fail.
// Queued jobs are retained for drainAll.
func (q *jobQueue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// drainAll removes and returns every still-queued job (interactive first).
// Used after Close to build the drain ledger.
func (q *jobQueue) drainAll() []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for c := Class(0); c < numClasses; c++ {
		out = append(out, q.q[c]...)
		q.q[c] = nil
	}
	return out
}

// Depths reports the current per-class queue lengths.
func (q *jobQueue) Depths() (interactive, batch int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.q[Interactive]), len(q.q[Batch])
}
