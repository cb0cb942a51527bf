package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// hostileIndexHeader is a 36-byte index that claims 1<<20 files, the first
// of them holding 1<<24 chunks, and then ends.
func hostileIndexHeader() []byte {
	le := binary.LittleEndian
	b := le.AppendUint32([]byte(indexMagic), indexVersion)
	b = le.AppendUint32(b, 0)     // flags
	b = le.AppendUint32(b, 4)     // unit size
	b = le.AppendUint32(b, 1<<20) // files
	b = le.AppendUint32(b, 0)     // first file: empty name
	b = le.AppendUint64(b, 0)     // size
	return le.AppendUint32(b, 1<<24)
}

// TestReadIndexBoundsHostileCounts: the counts in an index are not trusted,
// so a short index that claims millions of records allocates next to
// nothing and fails as ErrCorruptIndex.
func TestReadIndexBoundsHostileCounts(t *testing.T) {
	hdr := hostileIndexHeader()
	if len(hdr) != 36 {
		t.Fatalf("header is %d bytes, want 36", len(hdr))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadIndex(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("ReadIndex = %v, want ErrCorruptIndex", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("ReadIndex allocated %d bytes for a %d-byte index, want < 1 MiB", got, len(hdr))
	}
}

// FuzzReadIndex feeds arbitrary bytes to the index parser, which agents run
// on every JobSpec.Index they receive. It must return an index or an error,
// never panic, and an index it accepts must come back unchanged through
// WriteTo and ReadIndex. Run with
//
//	go test -fuzz=FuzzReadIndex ./internal/chunk
func FuzzReadIndex(f *testing.F) {
	plain, err := Layout("f", 40, 4, 16, 5)
	if err != nil {
		f.Fatal(err)
	}
	summed, err := Layout("s", 24, 8, 12, 4)
	if err != nil {
		f.Fatal(err)
	}
	for fi := range summed.Files {
		for ci := range summed.Files[fi].Chunks {
			summed.Files[fi].Checksums = append(summed.Files[fi].Checksums, uint32(fi<<8|ci))
		}
	}
	for _, ix := range []*Index{plain, summed, {UnitSize: 4}} {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	f.Add(hostileIndexHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		back, err := ReadIndex(&buf)
		if err != nil {
			t.Fatalf("re-reading a written index: %v", err)
		}
		if !reflect.DeepEqual(back, ix) {
			t.Fatalf("index changed through WriteTo:\n got %+v\nwant %+v", back, ix)
		}
	})
}
