package fault

import (
	"encoding/binary"
	"fmt"
)

// Checkpoint is one cluster's recovery state: the merged reduction object
// covering every job the cluster has folded so far, plus the list of those
// job IDs. Because GlobalReduce is associative and the pool guarantees each
// job folds exactly once, a restarted worker that (a) seeds its reduction
// object from the checkpoint and (b) never re-folds a job in Completed
// produces the same final object as an uninterrupted run.
//
// The head also uses the Completed set as the re-issue boundary: when a
// site dies, completions the head accepted after the site's last checkpoint
// are lost with the site's in-memory object, so they go back to the pool.
type Checkpoint struct {
	// Site is the owning cluster's storage-site ID.
	Site int
	// Seq increases with every checkpoint a cluster takes (1-based), so
	// stale writes racing a restart cannot roll state back.
	Seq int
	// Object is the encoded merged reduction object.
	Object []byte
	// Completed lists the job IDs covered by Object, ascending.
	Completed []int
}

// checkpointMagic guards against decoding garbage or foreign objects.
const checkpointMagic = 0xC4EC4EC1

// Encode serializes the checkpoint into a self-describing binary blob
// (fixed little-endian header, then the job bitmap as varint deltas, then
// the object bytes).
func (c Checkpoint) Encode() []byte {
	buf := make([]byte, 0, 32+len(c.Completed)*2+len(c.Object))
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], checkpointMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(c.Site))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(c.Seq))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(c.Completed)))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(c.Object)))
	buf = append(buf, hdr[:]...)
	prev := 0
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range c.Completed {
		n := binary.PutUvarint(tmp[:], uint64(id-prev))
		buf = append(buf, tmp[:n]...)
		prev = id
	}
	return append(buf, c.Object...)
}

// DecodeCheckpoint reverses Encode.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var c Checkpoint
	if len(data) < 20 {
		return c, fmt.Errorf("fault: checkpoint truncated (%d bytes)", len(data))
	}
	if m := binary.LittleEndian.Uint32(data[0:]); m != checkpointMagic {
		return c, fmt.Errorf("fault: bad checkpoint magic %#x", m)
	}
	c.Site = int(binary.LittleEndian.Uint32(data[4:]))
	c.Seq = int(binary.LittleEndian.Uint32(data[8:]))
	njobs := int(binary.LittleEndian.Uint32(data[12:]))
	objLen := int(binary.LittleEndian.Uint32(data[16:]))
	rest := data[20:]
	c.Completed = make([]int, 0, njobs)
	prev := 0
	for i := 0; i < njobs; i++ {
		d, n := binary.Uvarint(rest)
		if n <= 0 {
			return c, fmt.Errorf("fault: checkpoint job list truncated at entry %d", i)
		}
		prev += int(d)
		c.Completed = append(c.Completed, prev)
		rest = rest[n:]
	}
	if len(rest) != objLen {
		return c, fmt.Errorf("fault: checkpoint object is %d bytes, header says %d", len(rest), objLen)
	}
	c.Object = rest
	return c, nil
}

// QueryKey returns the object-store key for a (query, site) checkpoint
// under prefix (default "ckpt"), e.g. QueryKey("ckpt", 2, 1) ==
// "ckpt/q2/site-1". Each (query, site) keeps a single key that later
// checkpoints overwrite; Seq disambiguates stale content.
func QueryKey(prefix string, query, site int) string {
	if prefix == "" {
		prefix = "ckpt"
	}
	return fmt.Sprintf("%s/q%d/site-%d", prefix, query, site)
}

// Store is the persistence interface checkpoints are written through. The
// objstore client and MemStore satisfy it.
type Store interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
}

// MemStore is an in-memory Store for tests and in-process runs.
type MemStore struct {
	mu   chan struct{} // 1-buffered mutex so the zero value needs a ctor
	objs map[string][]byte
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore {
	m := &MemStore{mu: make(chan struct{}, 1), objs: make(map[string][]byte)}
	return m
}

// Put implements Store.
func (m *MemStore) Put(key string, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu <- struct{}{}
	m.objs[key] = cp
	<-m.mu
	return nil
}

// Get implements Store. A missing key returns a permanent error.
func (m *MemStore) Get(key string) ([]byte, error) {
	m.mu <- struct{}{}
	data, ok := m.objs[key]
	<-m.mu
	if !ok {
		return nil, AsPermanent(fmt.Errorf("fault: no checkpoint at %q", key))
	}
	return data, nil
}
