// Package chunk implements the paper's three-level data organization:
// a dataset is divided into FILES (to satisfy file-system limits and to
// allow distribution across sites), each file is split into logical CHUNKS
// (sized to worker memory; the unit of job assignment and of retrieval),
// and each chunk consists of fixed-size UNITS (the smallest atomically
// processable data elements, dispatched to the reduction layer in
// cache-sized groups).
//
// A data index file is generated after analyzing the data set. It holds
// metadata — physical locations (data files), starting offsets, chunk sizes
// and the number of units inside each chunk — and is what the head node
// reads to generate the job pool.
package chunk

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Common errors returned by this package.
var (
	ErrBadMagic     = errors.New("chunk: not an index file (bad magic)")
	ErrBadVersion   = errors.New("chunk: unsupported index version")
	ErrCorruptIndex = errors.New("chunk: corrupt index")
	ErrBounds       = errors.New("chunk: reference out of bounds")
)

// Ref identifies one chunk within a dataset: the file that holds it, the
// byte range inside the file, and how many units it contains. A Ref is the
// payload of a job — the head node's job pool is exactly the list of Refs
// from the index.
type Ref struct {
	File   int   // index into Index.Files
	Seq    int   // position of this chunk within its file (0-based)
	Offset int64 // starting byte offset within the file
	Size   int64 // length in bytes
	Units  int   // number of data units in the chunk
}

// String renders the ref for logs: "file3/chunk12@4096+65536(128u)".
func (r Ref) String() string {
	return fmt.Sprintf("file%d/chunk%d@%d+%d(%du)", r.File, r.Seq, r.Offset, r.Size, r.Units)
}

// FileMeta describes one data file of the dataset.
type FileMeta struct {
	Name   string // file name (relative to the dataset root or object key)
	Size   int64  // total bytes
	Chunks []Ref  // chunks in offset order
	// Checksums optionally holds one CRC32-C per chunk (see checksum.go);
	// empty means integrity verification is disabled for this file.
	Checksums []uint32
}

// Index is the dataset metadata generated by the data organizer. It is
// written alongside the data and read by the head node at startup.
type Index struct {
	UnitSize int        // bytes per data unit
	Files    []FileMeta // data files in canonical order
}

// NumChunks returns the total number of chunks (== jobs) in the dataset.
func (ix *Index) NumChunks() int {
	n := 0
	for _, f := range ix.Files {
		n += len(f.Chunks)
	}
	return n
}

// TotalBytes returns the total dataset size in bytes.
func (ix *Index) TotalBytes() int64 {
	var n int64
	for _, f := range ix.Files {
		n += f.Size
	}
	return n
}

// TotalUnits returns the total number of data units in the dataset.
func (ix *Index) TotalUnits() int64 {
	var n int64
	for _, f := range ix.Files {
		for _, c := range f.Chunks {
			n += int64(c.Units)
		}
	}
	return n
}

// AllRefs returns every chunk reference in file order then offset order —
// the canonical job list.
func (ix *Index) AllRefs() []Ref {
	refs := make([]Ref, 0, ix.NumChunks())
	for _, f := range ix.Files {
		refs = append(refs, f.Chunks...)
	}
	return refs
}

// Validate checks internal consistency: chunk ranges must tile each file
// without overlap, unit counts must match sizes, and File/Seq fields must
// agree with positions.
func (ix *Index) Validate() error {
	if ix.UnitSize <= 0 {
		return fmt.Errorf("%w: unit size %d", ErrCorruptIndex, ix.UnitSize)
	}
	for fi, f := range ix.Files {
		var off int64
		for ci, c := range f.Chunks {
			if c.File != fi {
				return fmt.Errorf("%w: file %d chunk %d has File=%d", ErrCorruptIndex, fi, ci, c.File)
			}
			if c.Seq != ci {
				return fmt.Errorf("%w: file %d chunk %d has Seq=%d", ErrCorruptIndex, fi, ci, c.Seq)
			}
			if c.Offset != off {
				return fmt.Errorf("%w: file %d chunk %d offset %d, want %d", ErrCorruptIndex, fi, ci, c.Offset, off)
			}
			if c.Size <= 0 || c.Size%int64(ix.UnitSize) != 0 {
				return fmt.Errorf("%w: file %d chunk %d size %d not a multiple of unit size %d",
					ErrCorruptIndex, fi, ci, c.Size, ix.UnitSize)
			}
			if int64(c.Units)*int64(ix.UnitSize) != c.Size {
				return fmt.Errorf("%w: file %d chunk %d units %d inconsistent with size %d",
					ErrCorruptIndex, fi, ci, c.Units, c.Size)
			}
			off += c.Size
		}
		if off != f.Size {
			return fmt.Errorf("%w: file %d chunks cover %d bytes, file size %d", ErrCorruptIndex, fi, off, f.Size)
		}
	}
	return nil
}

// Layout computes the chunking of a dataset: totalUnits elements of unitSize
// bytes are split into files of at most fileUnits units, each divided into
// chunks of at most chunkUnits units. File names are name0000.dat style with
// the given prefix. The final file/chunk may be short.
func Layout(prefix string, totalUnits int64, unitSize, fileUnits, chunkUnits int) (*Index, error) {
	if totalUnits <= 0 || unitSize <= 0 || fileUnits <= 0 || chunkUnits <= 0 {
		return nil, fmt.Errorf("chunk: invalid layout parameters (units=%d unitSize=%d fileUnits=%d chunkUnits=%d)",
			totalUnits, unitSize, fileUnits, chunkUnits)
	}
	ix := &Index{UnitSize: unitSize}
	remaining := totalUnits
	for fi := 0; remaining > 0; fi++ {
		fu := int64(fileUnits)
		if remaining < fu {
			fu = remaining
		}
		remaining -= fu
		fm := FileMeta{
			Name: fmt.Sprintf("%s%04d.dat", prefix, fi),
			Size: fu * int64(unitSize),
		}
		var off int64
		for seq := 0; fu > 0; seq++ {
			cu := int64(chunkUnits)
			if fu < cu {
				cu = fu
			}
			fu -= cu
			fm.Chunks = append(fm.Chunks, Ref{
				File:   fi,
				Seq:    seq,
				Offset: off,
				Size:   cu * int64(unitSize),
				Units:  int(cu),
			})
			off += cu * int64(unitSize)
		}
		ix.Files = append(ix.Files, fm)
	}
	return ix, ix.Validate()
}

// Index file binary format:
//
//	magic "GRIX" | uint32 version | [v2: uint32 flags] | uint32 unitSize | uint32 nFiles
//	per file: uint32 nameLen | name | uint64 size | uint32 nChunks
//	per chunk: uint64 offset | uint64 size | uint32 units
//	[v2, flagChecksums: per file: nChunks × uint32 CRC32-C]
//
// File and Seq fields are implied by position and reconstructed on read.
// Version 1 files (no flags word, no checksums) remain readable.
const (
	indexMagic      = "GRIX"
	indexVersionOld = 1
	indexVersion    = 2

	flagChecksums = 1 << 0
)

// WriteTo serializes the index in the binary format above.
func (ix *Index) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	var flags uint32
	if ix.HasChecksums() {
		flags |= flagChecksums
	}
	b := le.AppendUint32([]byte(indexMagic), indexVersion)
	b = le.AppendUint32(b, flags)
	b = le.AppendUint32(b, uint32(ix.UnitSize))
	b = le.AppendUint32(b, uint32(len(ix.Files)))
	for _, f := range ix.Files {
		b = le.AppendUint32(b, uint32(len(f.Name)))
		b = append(b, f.Name...)
		b = le.AppendUint64(b, uint64(f.Size))
		b = le.AppendUint32(b, uint32(len(f.Chunks)))
		for _, c := range f.Chunks {
			b = le.AppendUint64(b, uint64(c.Offset))
			b = le.AppendUint64(b, uint64(c.Size))
			b = le.AppendUint32(b, uint32(c.Units))
		}
		if flags&flagChecksums != 0 {
			for _, sum := range f.Checksums {
				b = le.AppendUint32(b, sum)
			}
		}
	}
	n, err := w.Write(b)
	return int64(n), err
}

// ReadIndex parses an index previously written with WriteTo and validates
// it. Agents decode indexes off the wire, so no count in one is trusted:
// the file and chunk lists grow as their records arrive, and an index that
// ends early is ErrCorruptIndex.
func ReadIndex(r io.Reader) (*Index, error) {
	x := indexReader{r: r}
	if string(x.next(make([]byte, len(indexMagic)))) != indexMagic {
		if x.err != nil {
			return nil, x.fail()
		}
		return nil, ErrBadMagic
	}
	var flags uint32
	switch version := x.u32(); {
	case x.err != nil || version == indexVersionOld:
		// No flags word, no checksums.
	case version == indexVersion:
		flags = x.u32()
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, version)
	}
	ix := &Index{UnitSize: int(x.u32())}
	nFiles := int(x.u32())
	if nFiles > 1<<20 {
		return nil, fmt.Errorf("%w: %d files", ErrCorruptIndex, nFiles)
	}
	for fi := 0; fi < nFiles && x.err == nil; fi++ {
		nameLen := x.u32()
		if nameLen > 4096 {
			return nil, fmt.Errorf("%w: name length %d", ErrCorruptIndex, nameLen)
		}
		fm := FileMeta{Name: string(x.next(make([]byte, nameLen))), Size: int64(x.u64())}
		nChunks := int(x.u32())
		if nChunks > 1<<24 {
			return nil, fmt.Errorf("%w: %d chunks", ErrCorruptIndex, nChunks)
		}
		for ci := 0; ci < nChunks && x.err == nil; ci++ {
			// Operands are evaluated left to right: offset, size, units.
			fm.Chunks = append(fm.Chunks, Ref{File: fi, Seq: ci,
				Offset: int64(x.u64()), Size: int64(x.u64()), Units: int(x.u32())})
		}
		for ci := 0; flags&flagChecksums != 0 && ci < nChunks && x.err == nil; ci++ {
			fm.Checksums = append(fm.Checksums, x.u32())
		}
		ix.Files = append(ix.Files, fm)
	}
	if x.err != nil {
		return nil, x.fail()
	}
	if err := ix.Validate(); err != nil {
		return nil, err
	}
	return ix, nil
}

// indexReader reads an index's little-endian fields. It keeps the first
// read error and yields zeros after it, so ReadIndex checks once per record.
type indexReader struct {
	r   io.Reader
	err error
	b   [8]byte
}

func (x *indexReader) next(p []byte) []byte {
	if x.err == nil {
		_, x.err = io.ReadFull(x.r, p)
	}
	if x.err != nil {
		clear(p)
	}
	return p
}

func (x *indexReader) u32() uint32 { return binary.LittleEndian.Uint32(x.next(x.b[:4])) }
func (x *indexReader) u64() uint64 { return binary.LittleEndian.Uint64(x.next(x.b[:8])) }

// fail returns the read error, a short index as ErrCorruptIndex.
func (x *indexReader) fail() error {
	if x.err == io.EOF || x.err == io.ErrUnexpectedEOF {
		return fmt.Errorf("%w: truncated", ErrCorruptIndex)
	}
	return x.err
}

// UnitGroups splits a chunk's payload into groups of whole units whose size
// does not exceed groupBytes (the processing unit's cache budget). The last
// group may be short. It panics if data length is not a multiple of unitSize.
func UnitGroups(data []byte, unitSize, groupBytes int) [][]byte {
	return AppendUnitGroups(nil, data, unitSize, groupBytes)
}

// AppendUnitGroups is UnitGroups appending onto dst, so a hot loop can reuse
// one group slice across chunks (pass dst[:0]) and split every chunk with
// zero allocations once the slice has grown to its steady-state capacity.
func AppendUnitGroups(dst [][]byte, data []byte, unitSize, groupBytes int) [][]byte {
	if unitSize <= 0 {
		panic("chunk: non-positive unit size")
	}
	if len(data)%unitSize != 0 {
		panic(fmt.Sprintf("chunk: payload %d bytes not a multiple of unit size %d", len(data), unitSize))
	}
	unitsPerGroup := groupBytes / unitSize
	if unitsPerGroup < 1 {
		unitsPerGroup = 1
	}
	step := unitsPerGroup * unitSize
	if dst == nil {
		dst = make([][]byte, 0, (len(data)+step-1)/step)
	}
	for off := 0; off < len(data); off += step {
		end := off + step
		if end > len(data) {
			end = len(data)
		}
		dst = append(dst, data[off:end])
	}
	return dst
}
