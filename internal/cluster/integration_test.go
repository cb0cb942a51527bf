package cluster

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/chunk"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/head"
	"repro/internal/jobs"
	"repro/internal/objstore"
	"repro/internal/protocol"
)

// sumReducer sums little-endian uint32 units.
type sumReducer struct{}

type sumObj struct{ total uint64 }

func (sumReducer) NewObject() core.Object { return &sumObj{} }
func (sumReducer) LocalReduce(obj core.Object, unit []byte) error {
	obj.(*sumObj).total += uint64(binary.LittleEndian.Uint32(unit))
	return nil
}
func (sumReducer) GlobalReduce(dst, src core.Object) error {
	dst.(*sumObj).total += src.(*sumObj).total
	return nil
}
func (sumReducer) Encode(obj core.Object) ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, obj.(*sumObj).total), nil
}
func (sumReducer) Decode(data []byte) (core.Object, error) {
	if len(data) != 8 {
		return nil, fmt.Errorf("want 8 bytes, got %d", len(data))
	}
	return &sumObj{total: binary.LittleEndian.Uint64(data)}, nil
}

func init() {
	core.Register("cluster-test-sum", func([]byte) (core.Reducer, error) { return sumReducer{}, nil })
}

// buildDataset creates an index plus in-memory data whose units are
// uint32(i % 1009), and returns the expected sum.
func buildDataset(t *testing.T, units int64, fileUnits, chunkUnits int) (*chunk.Index, *chunk.MemSource, uint64) {
	t.Helper()
	ix, err := chunk.Layout("sum", units, 4, fileUnits, chunkUnits)
	if err != nil {
		t.Fatal(err)
	}
	src := chunk.NewMemSource(ix)
	var want uint64
	var unit int64
	for _, f := range ix.Files {
		buf := make([]byte, f.Size)
		for i := 0; i < int(f.Size/4); i++ {
			v := uint32(unit % 1009)
			binary.LittleEndian.PutUint32(buf[4*i:], v)
			want += uint64(v)
			unit++
		}
		if err := src.WriteFile(f.Name, buf); err != nil {
			t.Fatal(err)
		}
	}
	return ix, src, want
}

// sumSpec is the job spec of a sum query over ix.
func sumSpec(t *testing.T, ix *chunk.Index) protocol.JobSpec {
	t.Helper()
	spec := protocol.JobSpec{App: "cluster-test-sum", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	return spec
}

// admitHead builds a head from cfg (Logf defaults to t.Logf) and admits the
// one all-masters-rule sum query over ix × placement that a single-query
// deployment runs.
func admitHead(t *testing.T, cfg head.Config, ix *chunk.Index, placement jobs.Placement, po jobs.Options) (*head.Head, *head.Query) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	h, err := head.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h, admitAll(t, h, ix, placement, po)
}

// admitAll admits one all-masters-rule sum query over ix × placement.
func admitAll(t *testing.T, h *head.Head, ix *chunk.Index, placement jobs.Placement, po jobs.Options) *head.Query {
	t.Helper()
	pool, err := jobs.NewPool(ix, placement, po)
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: sumSpec(t, ix), ExpectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func newHead(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int) (*head.Head, *head.Query) {
	return newHeadTuned(t, ix, placement, clusters, config.Tuning{})
}

func newHeadTuned(t *testing.T, ix *chunk.Index, placement jobs.Placement, clusters int, tn config.Tuning) (*head.Head, *head.Query) {
	t.Helper()
	return admitHead(t, head.Config{ExpectClusters: clusters, Tuning: tn}, ix, placement, jobs.Options{})
}

// session is the outcome of one single-query deployment: the query's result
// as the head reports it, and each agent's exit error in cfg order.
type session struct {
	obj     core.Object
	reports []head.ClusterReport
	err     error
	agents  []error
}

// runAgents is the deployment every single-query test here runs: one RunAgent
// per cfg against h (in-process unless the cfg brings its own Head), wait for
// q to end — or for every agent to have given up — then shut the head down
// and join the agents.
func runAgents(t *testing.T, h *head.Head, q *head.Query, cfgs ...AgentConfig) session {
	t.Helper()
	s := session{agents: make([]error, len(cfgs))}
	var wg sync.WaitGroup
	for i, cfg := range cfgs {
		if cfg.Head == nil {
			cfg.Head = InProcAgent{Head: h}
		}
		if cfg.Logf == nil {
			cfg.Logf = t.Logf
		}
		wg.Add(1)
		go func(i int, cfg AgentConfig) {
			defer wg.Done()
			s.agents[i] = RunAgent(context.Background(), cfg)
		}(i, cfg)
	}
	joined := make(chan struct{})
	go func() { wg.Wait(); close(joined) }()
	select {
	case <-q.Done():
	case <-joined:
	}
	h.Shutdown()
	<-joined
	s.obj, s.reports, _, s.err = q.Wait(context.Background())
	return s
}

// sum fails the test unless the query and every agent ended cleanly, and
// returns the final total.
func (s session) sum(t *testing.T) uint64 {
	t.Helper()
	for i, err := range s.agents {
		if err != nil {
			t.Fatalf("agent %d: %v", i, err)
		}
	}
	if s.err != nil {
		t.Fatalf("query: %v", s.err)
	}
	return s.obj.(*sumObj).total
}

// jobs adds up the per-cluster job accounting the head collected.
func (s session) jobs() (local, stolen int) {
	for _, r := range s.reports {
		local += r.Jobs.Local
		stolen += r.Jobs.Stolen
	}
	return local, stolen
}

// countingSource adds the payload bytes read through it to n.
type countingSource struct {
	chunk.Source
	n *atomic.Int64
}

func (c countingSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	data, err := c.Source.ReadChunk(ref)
	c.n.Add(int64(len(data)))
	return data, err
}

func TestSingleClusterInProc(t *testing.T) {
	ix, src, want := buildDataset(t, 4000, 1000, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 1, 0, 1), 1)
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "local", Cores: 4,
		Sources: map[int]chunk.Source{0: src},
	})
	if got := s.sum(t); got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	if len(s.reports) != 1 || s.reports[0].Jobs.Total() != ix.NumChunks() {
		t.Errorf("reports = %+v", s.reports)
	}
	if _, stolen := s.jobs(); stolen != 0 {
		t.Errorf("single local cluster stole %d jobs", stolen)
	}
}

// gatedSource holds every read until open is closed.
type gatedSource struct {
	chunk.Source
	open <-chan struct{}
}

func (g gatedSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	<-g.open
	return g.Source.ReadChunk(ref)
}

// tripSource closes open once the n-th read through it (and its copies
// sharing reads) has completed.
type tripSource struct {
	chunk.Source
	reads *atomic.Int64
	n     int64
	open  chan struct{}
}

func (c tripSource) ReadChunk(ref chunk.Ref) ([]byte, error) {
	data, err := c.Source.ReadChunk(ref)
	if c.reads.Add(1) == c.n {
		close(c.open)
	}
	return data, err
}

func TestHybridTwoClustersInProc(t *testing.T) {
	ix, src, want := buildDataset(t, 8000, 1000, 100) // 8 files × 10 chunks
	// 25% of files at site 0, 75% at site 1: site 0 must steal.
	placement := jobs.SplitByFraction(len(ix.Files), 0.25, 0, 1)
	h, q := newHead(t, ix, placement, 2)

	// Site 0 holds 20 chunks. Site 1 cannot read anything until site 0 has
	// completed 21 reads, so site 0 must take at least one of site 1's
	// chunks while site 1 holds at most one request batch of its 60.
	open := make(chan struct{})
	counted := tripSource{src, new(atomic.Int64), 21, open}
	gated := gatedSource{src, open}
	s := runAgents(t, h, q,
		AgentConfig{Site: 0, Name: "local", Cores: 2, Sources: map[int]chunk.Source{0: counted, 1: counted}},
		AgentConfig{Site: 1, Name: "cloud", Cores: 2, Sources: map[int]chunk.Source{0: gated, 1: gated}})
	if got := s.sum(t); got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	local, stolen := s.jobs()
	if local+stolen != ix.NumChunks() {
		t.Errorf("clusters processed %d jobs, dataset has %d", local+stolen, ix.NumChunks())
	}
	if stolen == 0 {
		t.Error("no stealing despite skewed placement")
	}
	for _, r := range s.reports {
		if r.Site == 0 && r.Jobs.Stolen == 0 {
			t.Errorf("site 0 stole nothing: %+v", r.Jobs)
		}
	}
}

// storeServer serves src's dataset from an in-memory object store on
// loopback, as a real deployment's remote site would.
func storeServer(t *testing.T, ix *chunk.Index, src chunk.Source) (addr string) {
	t.Helper()
	store := objstore.NewServer(objstore.NewMemBackend())
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go store.Serve(sl)
	t.Cleanup(func() { store.Close() })
	up := objstore.Dial("tcp", sl.Addr().String(), 4)
	defer up.Close()
	if err := objstore.Upload(up, ix, src, ""); err != nil {
		t.Fatal(err)
	}
	return sl.Addr().String()
}

// socketAgents runs the two-cluster hybrid deployment over real sockets: the
// head behind Serve, each master on its own DialAgent session, site 1's data
// behind the object store at storeAddr. Every source a master builds passes
// through wrap.
func socketAgents(t *testing.T, h *head.Head, q *head.Query, src chunk.Source, storeAddr string,
	wrap func(chunk.Source) chunk.Source) session {
	t.Helper()
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(hl)
	defer h.Close()
	var cfgs []AgentConfig
	for site := 0; site < 2; site++ {
		hc, err := DialAgent("tcp", hl.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer hc.Close()
		osc := objstore.Dial("tcp", storeAddr, 4)
		defer osc.Close()
		cfgs = append(cfgs, AgentConfig{
			Site: site, Name: fmt.Sprintf("c%d", site), Cores: 2, RetrievalThreads: 3,
			Head: hc,
			SourceBuilder: func(ix *chunk.Index) (map[int]chunk.Source, error) {
				return map[int]chunk.Source{
					0: wrap(src), // cluster-local storage node
					1: wrap(&objstore.Source{Client: osc, Index: ix, Threads: 2}),
				}, nil
			},
			SourceLabels: map[int]string{0: "local", 1: "s3"},
		})
	}
	return runAgents(t, h, q, cfgs...)
}

func TestHybridOverSockets(t *testing.T) {
	ix, src, want := buildDataset(t, 6000, 1000, 100)
	h, q := newHead(t, ix, jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1), 2)
	// Byte accounting: both clusters together must read the dataset exactly
	// once, whichever source each chunk came through.
	var read atomic.Int64
	count := func(inner chunk.Source) chunk.Source { return countingSource{inner, &read} }
	s := socketAgents(t, h, q, src, storeServer(t, ix, src), count)
	if got := s.sum(t); got != want {
		t.Errorf("final sum = %d, want %d", got, want)
	}
	if got := read.Load(); got != ix.TotalBytes() {
		t.Errorf("clusters retrieved %d bytes, dataset is %d", got, ix.TotalBytes())
	}
}

func TestRunConfigValidation(t *testing.T) {
	ctx := context.Background()
	if err := RunAgent(ctx, AgentConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	if err := RunAgent(ctx, AgentConfig{Cores: 1}); err == nil {
		t.Error("missing head accepted")
	}
	ix, _, _ := buildDataset(t, 100, 100, 10)
	h, _ := newHead(t, ix, jobs.SplitByFraction(1, 1, 0, 1), 1)
	if err := RunAgent(ctx, AgentConfig{Cores: 1, Head: InProcAgent{Head: h}}); err == nil {
		t.Error("missing sources accepted")
	}
}

func TestHeadRejectsExtraClusters(t *testing.T) {
	ix, _, _ := buildDataset(t, 100, 100, 10)
	h, _ := newHead(t, ix, jobs.SplitByFraction(1, 1, 0, 1), 1)
	if _, err := h.RegisterSite(protocol.Hello{Site: 0, Proto: protocol.ProtoMulti}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.RegisterSite(protocol.Hello{Site: 1, Proto: protocol.ProtoMulti}); err == nil {
		t.Error("over-registration accepted")
	}
}

func TestUnknownReducerInSpec(t *testing.T) {
	ix, src, _ := buildDataset(t, 100, 100, 10)
	pool, err := jobs.NewPool(ix, jobs.SplitByFraction(1, 1, 0, 1), jobs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := protocol.JobSpec{App: "no-such-app", UnitSize: 4}
	if err := head.EncodeIndexSpec(&spec, ix); err != nil {
		t.Fatal(err)
	}
	h, err := head.New(head.Config{ExpectClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := h.Admit(head.QueryConfig{Pool: pool, Reducer: sumReducer{}, Spec: spec, ExpectAll: true})
	if err != nil {
		t.Fatal(err)
	}
	s := runAgents(t, h, q, AgentConfig{
		Site: 0, Name: "x", Cores: 1,
		Sources: map[int]chunk.Source{0: src},
	})
	if s.agents[0] == nil {
		t.Error("unknown reducer accepted")
	}
}

// TestHybridOverSocketsCodecs runs the two-cluster hybrid deployment with
// every peer on the one wire codec: both masters, their object-store
// clients and the head all speak binary from the first byte. The gob and
// mixed cases went with the gob codec.
func TestHybridOverSocketsCodecs(t *testing.T) {
	t.Run("both-binary", func(t *testing.T) {
		ix, src, want := buildDataset(t, 6000, 1000, 100)
		placement := jobs.SplitByFraction(len(ix.Files), 0.5, 0, 1)
		h, q := newHead(t, ix, placement, 2)
		s := socketAgents(t, h, q, src, storeServer(t, ix, src),
			func(s chunk.Source) chunk.Source { return s })
		if got := s.sum(t); got != want {
			t.Errorf("final sum = %d, want %d", got, want)
		}
	})
}
