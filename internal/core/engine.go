package core

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/chunk"
	"repro/internal/stats"
)

// DefaultGroupBytes is the unit-group budget an engine uses when its
// EngineConfig leaves GroupBytes unset: cache-sized, per the paper's data
// organization.
const DefaultGroupBytes = 256 << 10

// EngineConfig configures a local-reduction engine.
type EngineConfig struct {
	// Reducer is the application contract. Required.
	Reducer Reducer
	// Workers is the number of processing threads (compute cores used on
	// this node). Defaults to GOMAXPROCS.
	Workers int
	// UnitSize is the dataset's bytes-per-unit. Required.
	UnitSize int
	// GroupBytes caps the size of a unit group handed to one LocalReduce
	// batch — the cache-utilization knob from the paper's data organization.
	// Defaults to DefaultGroupBytes.
	GroupBytes int
	// QueueDepth bounds the number of retrieved chunks waiting for
	// processing (the memory the slave dedicates to in-flight jobs).
	// Defaults to 2×Workers.
	QueueDepth int
	// Collector, when non-nil, receives processing-time measurements.
	Collector *stats.Collector
	// Release, when non-nil, receives each submitted payload after it has
	// been fully folded — the hand-off point where a pooled chunk buffer
	// returns to its pool (bufpool.Put in the cluster runtime). Reducers
	// must not retain unit slices beyond LocalReduce for this to be safe.
	Release func([]byte)
}

func (c *EngineConfig) applyDefaults() error {
	if c.Reducer == nil {
		return fmt.Errorf("core: EngineConfig.Reducer is required")
	}
	if c.UnitSize <= 0 {
		return fmt.Errorf("core: EngineConfig.UnitSize must be positive, got %d", c.UnitSize)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.GroupBytes <= 0 {
		c.GroupBytes = DefaultGroupBytes
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	return nil
}

// Engine executes the local-reduction phase on one node: retrieved chunks
// are submitted to a bounded queue, worker goroutines split them into
// cache-sized unit groups and fold every unit into a per-worker reduction
// object (no locks, no intermediate pairs), and Finish merges the worker
// objects into the node's reduction object.
type Engine struct {
	cfg     EngineConfig
	queue   chan []byte
	wg      sync.WaitGroup
	objs    []Object
	errOnce sync.Once
	err     error

	// Snapshot quiescence protocol: pending counts submitted-but-unfolded
	// payloads; snapshotting pauses new submissions while a checkpoint
	// merges the per-worker objects. done and inflight guard shutdown:
	// done flips under qmu in Finish, and inflight counts Submit calls
	// between their done-check and their queue send, so Finish can wait
	// for them before closing the queue (closing it under a racing send
	// would panic).
	qmu          sync.Mutex
	qcond        *sync.Cond
	pending      int
	inflight     int
	snapshotting bool
	done         bool
}

// NewEngine starts the worker goroutines and returns a running engine.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	e := &Engine{
		cfg:   cfg,
		queue: make(chan []byte, cfg.QueueDepth),
		objs:  make([]Object, cfg.Workers),
	}
	e.qcond = sync.NewCond(&e.qmu)
	for w := 0; w < cfg.Workers; w++ {
		e.objs[w] = cfg.Reducer.NewObject()
		e.wg.Add(1)
		go e.worker(w)
	}
	return e, nil
}

func (e *Engine) worker(id int) {
	defer e.wg.Done()
	r := e.cfg.Reducer
	group, isGroup := r.(GroupReducer)
	obj := e.objs[id]
	var groups [][]byte // per-worker scratch, reused across chunks
	for data := range e.queue {
		start := time.Now()
		var err error
		groups = chunk.AppendUnitGroups(groups[:0], data, e.cfg.UnitSize, e.cfg.GroupBytes)
		if isGroup {
			for _, g := range groups {
				if err = group.LocalReduceGroup(obj, g, e.cfg.UnitSize); err != nil {
					break
				}
			}
		} else {
			err = e.reduceUnits(obj, groups)
		}
		if e.cfg.Collector != nil {
			e.cfg.Collector.AddProcessing(time.Since(start))
		}
		if err != nil {
			e.fail(err)
			// Keep draining so Submit never blocks forever after a failure.
		}
		e.qmu.Lock()
		e.pending--
		if e.pending == 0 {
			e.qcond.Broadcast()
		}
		e.qmu.Unlock()
		if e.cfg.Release != nil {
			e.cfg.Release(data)
		}
	}
}

func (e *Engine) reduceUnits(obj Object, groups [][]byte) error {
	r := e.cfg.Reducer
	us := e.cfg.UnitSize
	for _, g := range groups {
		for off := 0; off < len(g); off += us {
			if err := r.LocalReduce(obj, g[off:off+us]); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *Engine) fail(err error) {
	e.errOnce.Do(func() { e.err = err })
}

// Submit queues one retrieved chunk payload for processing. The payload's
// length must be a multiple of the unit size. Submit blocks when the queue
// is full, providing back-pressure against retrieval threads.
func (e *Engine) Submit(data []byte) error {
	if len(data)%e.cfg.UnitSize != 0 {
		return fmt.Errorf("%w: %d bytes, unit size %d", ErrBadPayload, len(data), e.cfg.UnitSize)
	}
	e.qmu.Lock()
	for e.snapshotting {
		e.qcond.Wait()
	}
	if e.done {
		e.qmu.Unlock()
		return ErrFinished
	}
	e.pending++
	e.inflight++
	e.qmu.Unlock()
	// The queue send must happen outside qmu (workers take qmu to decrement
	// pending); inflight keeps Finish from closing the queue under us.
	e.queue <- data
	e.qmu.Lock()
	e.inflight--
	if e.inflight == 0 {
		e.qcond.Broadcast()
	}
	e.qmu.Unlock()
	return nil
}

// Snapshot pauses new submissions, waits for every already-submitted
// payload to fold, and returns a fresh reduction object holding the merge
// of all per-worker objects so far — the engine's contribution to a
// reduction-object checkpoint. The workers' own objects are untouched, so
// processing resumes where it left off; GlobalReduce associativity makes
// the snapshot equal to what Finish would return if the input stopped here.
// Submissions racing Snapshot block until the snapshot completes.
func (e *Engine) Snapshot() (Object, error) {
	e.qmu.Lock()
	defer e.qmu.Unlock()
	if e.done {
		return nil, ErrFinished
	}
	for e.snapshotting { // one snapshot at a time
		e.qcond.Wait()
	}
	if e.done {
		return nil, ErrFinished
	}
	e.snapshotting = true
	for e.pending > 0 {
		e.qcond.Wait()
	}
	// Quiesced: the queue is empty and every worker is idle, so the worker
	// objects are stable.
	snap := e.cfg.Reducer.NewObject()
	var err error
	for _, obj := range e.objs {
		if err = e.cfg.Reducer.GlobalReduce(snap, obj); err != nil {
			break
		}
	}
	e.snapshotting = false
	e.qcond.Broadcast()
	if err == nil && e.err != nil {
		err = e.err
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Finish closes the queue, waits for the workers to drain it, and merges all
// per-worker reduction objects into one. It returns the node-level reduction
// object, or the first error encountered by any worker.
func (e *Engine) Finish() (Object, error) {
	e.qmu.Lock()
	if e.done {
		e.qmu.Unlock()
		return nil, ErrFinished
	}
	e.done = true
	// Wait out Submit calls that already passed their done-check and may be
	// blocked on the queue send; closing the channel under them would panic.
	// Workers keep draining, so these sends complete promptly.
	for e.inflight > 0 {
		e.qcond.Wait()
	}
	e.qmu.Unlock()
	close(e.queue)
	e.wg.Wait()
	if e.err != nil {
		return nil, e.err
	}
	result := e.objs[0]
	for _, obj := range e.objs[1:] {
		if err := e.cfg.Reducer.GlobalReduce(result, obj); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// Workers reports the number of processing threads.
func (e *Engine) Workers() int { return e.cfg.Workers }

// ---------------------------------------------------------------------------

// Run is the one-shot convenience entry point of the public API: it applies
// reducer to every chunk obtainable from src (as listed in ix) using the
// configured number of workers, and returns the final reduction object.
// It is what the quickstart example and in-process tests use; distributed
// deployments drive the same Engine through the cluster runtime instead.
func Run(cfg EngineConfig, ix *chunk.Index, src chunk.Source) (Object, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, ref := range ix.AllRefs() {
		data, err := src.ReadChunk(ref)
		if err != nil {
			_, _ = e.Finish()
			return nil, fmt.Errorf("core: retrieving %v: %w", ref, err)
		}
		if err := e.Submit(data); err != nil {
			_, _ = e.Finish()
			return nil, err
		}
	}
	return e.Finish()
}
