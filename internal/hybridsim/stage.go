package hybridsim

import (
	"time"
)

// StageModel describes a burst-side partition replica: a cache tier hosted
// at a cloud storage site that serves repeat reads at cloud-local rates,
// filled both read-through (a burst worker's miss deposits the chunk on the
// way past) and by an asynchronous pre-stager that copies remote partitions
// over the staging path ahead of need, in the head's grant order.
type StageModel struct {
	// Site is the storage site hosting the replica (the cloud-side object
	// store). Clusters co-located with it — and every burst worker — read
	// through the replica; chunks whose origin IS this site are never
	// cached (they are already local).
	Site int
	// CapacityBytes bounds the replica; ≤0 means unbounded. Admission past
	// the bound evicts the oldest staged chunks (FIFO).
	CapacityBytes int64
	// ServeRate is the replica's aggregate egress capacity (bytes/sec);
	// ≤0 means unlimited.
	ServeRate float64
	// ServePerStream caps a single replica read (one GET stream); ≤0 means
	// no per-stream cap.
	ServePerStream float64
	// ServeLatency is the per-read latency of a replica hit.
	ServeLatency time.Duration
	// StagePath models the origin→replica copy path the pre-stager uses
	// (typically the WAN pipe). Staging transfers also consume the origin
	// site's egress, so pre-staging competes with live retrieval for the
	// source array — exactly the contention the hit-rate payoff must beat.
	StagePath PathModel
	// StageStreams is the pre-stager's transfer concurrency (default 4;
	// 0 streams with a zero StagePath disables pre-staging, leaving the
	// replica purely read-through).
	StageStreams int
	// HitRate is the estimator-facing hint: the fraction of remote reads
	// expected to be served by the replica. The simulator ignores it (it
	// realizes actual hits); estimate.Makespan blends it into effective
	// per-site egress. Clamped to [0, 0.95] by the estimator.
	HitRate float64
}

// StageStats reports the replica's realized behavior over a run.
type StageStats struct {
	// Hits and Misses count cache-eligible reads (burst or replica-site
	// clusters reading remote-origin chunks).
	Hits   int
	Misses int
	// HitBytes is the volume served from the replica instead of the origin.
	HitBytes int64
	// PrestagedChunks/PrestagedBytes count pre-stager copies that landed
	// (read-through fills are not counted here).
	PrestagedChunks int
	PrestagedBytes  int64
	// PrestagedBySite breaks staged bytes down by origin site — this is the
	// egress the staging path actually drew from each source, which cost
	// accounting charges as cloud ingress.
	PrestagedBySite map[int]int64
	// Evictions counts chunks dropped to stay under CapacityBytes.
	Evictions int
	// ResidentBytes is the replica's occupancy when the run ended.
	ResidentBytes int64
	// ByIter splits hit/miss counts by the owning query's iteration number
	// at read time, so warm-iteration hit rates are directly assertable.
	ByIter []StageIterStats
}

// StageIterStats is the per-iteration slice of StageStats.ByIter.
type StageIterStats struct {
	Hits   int
	Misses int
}

// stageKey identifies one cached chunk. The query is part of the key: the
// replica does not share entries across queries (cross-query sharing is a
// noted follow-up), which keeps per-query accounting and eviction exact.
type stageKey struct {
	query int
	site  int
	file  int
	seq   int
}

// stageItem is one pending pre-stager copy.
type stageItem struct {
	key  stageKey
	size int64
}

// stageState is the replica's runtime state inside the simulator.
// Everything runs on the virtual clock; with the same config and
// seed, staging decisions and transfer completions are byte-identical.
type stageState struct {
	s     *multiSim
	model StageModel

	resident      map[stageKey]int64
	order         []stageKey // FIFO admission order, for eviction
	evicted       int
	residentBytes int64

	// retrieved marks chunks some cluster already processed this iteration;
	// the pre-stager skips them when the owning query has no more passes.
	retrieved map[stageKey]bool

	queue    []stageItem
	inFlight int

	serveRes *Resource
	pathRes  *Resource

	stats StageStats
}

func newStageState(s *multiSim, m StageModel) *stageState {
	st := &stageState{
		s:         s,
		model:     m,
		resident:  make(map[stageKey]int64),
		retrieved: make(map[stageKey]bool),
	}
	st.stats.PrestagedBySite = make(map[int]int64)
	if m.ServeRate > 0 {
		st.serveRes = &Resource{Name: "stage-serve", Capacity: m.ServeRate}
	}
	if m.StagePath.Bandwidth > 0 {
		st.pathRes = &Resource{Name: "stage-path", Capacity: m.StagePath.Bandwidth}
	}
	// Build the pre-stage queue in the head's grant order: queries in
	// admission order, files in index order, chunks sequentially — the same
	// order jobs.Pool hands out consecutive groups, so staged data tends to
	// arrive just ahead of its grants. Only remote-origin partitions stage.
	for qi, q := range s.cfg.Queries {
		for fi, f := range q.Index.Files {
			if fi < len(q.Placement) && q.Placement[fi] == m.Site {
				continue
			}
			site := 0
			if fi < len(q.Placement) {
				site = q.Placement[fi]
			}
			for _, ref := range f.Chunks {
				st.queue = append(st.queue, stageItem{
					key:  stageKey{query: qi, site: site, file: ref.File, seq: ref.Seq},
					size: ref.Size,
				})
			}
		}
	}
	return st
}

func (st *stageState) streams() int {
	if st.model.StageStreams > 0 {
		return st.model.StageStreams
	}
	return 4
}

// eligible reports whether a cluster reads through the replica: burst
// workers always do (they boot next to the cloud store), as does any static
// cluster co-located with the replica site.
func (st *stageState) eligible(c *mqCluster) bool {
	return c.burst || c.model.Site == st.model.Site
}

// cacheable reports whether a chunk's origin makes replica reads meaningful.
func (st *stageState) cacheable(site int) bool { return site != st.model.Site }

// start launches the pre-stager's transfer streams.
func (st *stageState) start() {
	for i := 0; i < st.streams(); i++ {
		st.next()
	}
}

// next issues the first pending copy still worth making.
func (st *stageState) next() {
	s := st.s
	if s.err != nil || s.finished >= len(s.cfg.Queries) {
		return
	}
	for len(st.queue) > 0 {
		item := st.queue[0]
		st.queue = st.queue[1:]
		if _, ok := st.resident[item.key]; ok {
			continue // read-through beat us to it
		}
		if st.retrieved[item.key] && !s.queryHasMorePasses(item.key.query) {
			continue // already consumed and never re-read: wasted copy
		}
		st.inFlight++
		var resources []*Resource
		if r, ok := s.egress[item.key.site]; ok && r.Capacity > 0 {
			resources = append(resources, r)
		}
		if st.pathRes != nil {
			resources = append(resources, st.pathRes)
		}
		s.net.Start(item.size, st.model.StagePath.Latency, st.model.StagePath.PerStream, resources, func() {
			st.inFlight--
			st.stats.PrestagedChunks++
			st.stats.PrestagedBytes += item.size
			st.stats.PrestagedBySite[item.key.site] += item.size
			st.insert(item.key, item.size)
			st.next()
		})
		return
	}
}

// insert admits one chunk, evicting FIFO past CapacityBytes. Both the
// pre-stager and the read-through miss path land here.
func (st *stageState) insert(key stageKey, size int64) {
	if _, ok := st.resident[key]; ok {
		return
	}
	if cap := st.model.CapacityBytes; cap > 0 {
		if size > cap {
			return // larger than the whole replica; never admit
		}
		for st.residentBytes+size > cap && len(st.order) > 0 {
			victim := st.order[0]
			st.order = st.order[1:]
			if vs, ok := st.resident[victim]; ok {
				delete(st.resident, victim)
				st.residentBytes -= vs
				st.evicted++
				st.stats.Evictions++
			}
		}
	}
	st.resident[key] = size
	st.order = append(st.order, key)
	st.residentBytes += size
}

// recordRead accounts one cache-eligible read against the owning query's
// current iteration.
func (st *stageState) recordRead(iter int, hit bool, size int64) {
	for len(st.stats.ByIter) <= iter {
		st.stats.ByIter = append(st.stats.ByIter, StageIterStats{})
	}
	if hit {
		st.stats.Hits++
		st.stats.HitBytes += size
		st.stats.ByIter[iter].Hits++
	} else {
		st.stats.Misses++
		st.stats.ByIter[iter].Misses++
	}
}

// snapshot finalizes the run-level stats.
func (st *stageState) snapshot() *StageStats {
	out := st.stats
	out.ResidentBytes = st.residentBytes
	return &out
}
