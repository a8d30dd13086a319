// Package spill implements the disk half of the exec engine's
// memory-bounded execution mode — spill passes holding sequence-tagged
// rows — and the checksummed columnar block those passes are made of.
//
// A Manager owns one run's spill passes and tracks the bytes written and the
// files created for the engine's Stats. A Pass is one partitioning step of
// an operator — a fan-out's buckets, or an external sort's runs — and is one
// append-only temp file, created directly in the manager's parent
// directory on the pass's first write. Each
// bucket of the pass is a Writer that appends a column.Batch's presented
// rows, with their sequence keys, as blocks to the pass's file and records
// each block's extent (offset, length); it is Finished into an immutable
// File, which Opens into a Reader decoding the bucket's blocks back, in
// write order, where they lie: extents that adjoin in the file are read
// together (ReadAt, up to one buffer's worth) and each block decodes in
// place onto a batch's column planes. Buckets interleave in the file, and
// an empty bucket writes nothing. The file is closed and removed when the last
// bucket of its pass is Removed or aborted, and Manager.Cleanup removes any
// pass file a run still holds.
//
// On disk, rows are grouped into columnar blocks: a block holds same-arity
// rows with each attribute's values packed contiguously under a single kind
// byte, so the per-value kind tag of a row codec is paid once per column
// instead of once per cell. Every block carries its own row count, its rows'
// sequence keys, its length and a CRC-32C of its payload, so a truncated or
// corrupted block is detected at read time instead of silently corrupting a
// query result.
//
// The block is the one row codec of the system, with three carriers: spill
// passes, the persistent store's segment files, and the server's rows
// frames, each of which carries one block of a result (its sequence keys
// are a pushed-down fragment's provenance). EncodeBlock writes a block from
// a batch's typed planes; DecodeBlocks reads blocks from a reader, and
// DecodeBlock one block in place from a frame's bytes, back onto a batch's
// typed planes against its schema — both through the one payload decoder,
// so a torn segment and a hostile peer's frame fail through the same code.
package spill

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/value"
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manager owns one execution run's spill passes. It touches the filesystem
// only when a pass first writes, so unbudgeted and unspilled runs never do.
type Manager struct {
	parent string // directory the pass files are created in; "" = os.TempDir()

	mu     sync.Mutex
	passes map[*Pass]struct{} // passes whose file exists

	bytes atomic.Int64
	files atomic.Int64
}

// NewManager returns a manager that creates its pass files in parent (""
// means the system temp directory).
func NewManager(parent string) *Manager { return &Manager{parent: parent} }

// BytesWritten is the total encoded bytes appended across all writers.
func (m *Manager) BytesWritten() int64 { return m.bytes.Load() }

// FilesCreated is the number of pass files the manager has created.
func (m *Manager) FilesCreated() int64 { return m.files.Load() }

// NewPass starts a pass: one append-only file, created on its first write,
// shared by every bucket Writer the pass hands out.
func (m *Manager) NewPass() *Pass { return &Pass{mgr: m} }

// Create starts a pass of its own and returns its one bucket's writer.
func (m *Manager) Create() (*Writer, error) { return m.NewPass().Writer(), nil }

// Cleanup closes and removes every pass file the run still holds. It is
// safe to call when nothing ever spilled, and to call more than once.
func (m *Manager) Cleanup() error {
	m.mu.Lock()
	passes := m.passes
	m.passes = nil
	m.mu.Unlock()
	var first error
	for p := range passes {
		p.mu.Lock()
		err := p.discard()
		p.mu.Unlock()
		if first == nil {
			first = err
		}
	}
	return first
}

// writerBufSize is each pass's write buffer and each Reader's read window.
// A pass buffers all of its buckets' blocks in one buffer, so a fan-out
// costs one buffer, not one per bucket.
const writerBufSize = 16 << 10

// Pass is one append-only spill file shared by the bucket writers of one
// partitioning step. Its buckets' blocks interleave in the file in write
// order; each bucket knows its own blocks by their extents. Writers of one
// pass may be used from any goroutine; the file is released when the last
// bucket is removed or aborted, which partition tasks may do concurrently.
type Pass struct {
	mgr *Manager

	mu      sync.Mutex
	f       *os.File // nil until the first write
	flushed int64    // bytes written to f; buf starts at this offset
	buf     []byte   // encoded blocks not yet written
	live    int      // buckets neither removed nor aborted
}

// Writer adds a bucket to the pass.
func (p *Pass) Writer() *Writer {
	p.mu.Lock()
	p.live++
	p.mu.Unlock()
	return &Writer{p: p}
}

// flush writes the buffered blocks, creating the file on the first write.
// The caller holds p.mu.
func (p *Pass) flush() error {
	if len(p.buf) == 0 {
		return nil
	}
	if p.f == nil {
		parent := p.mgr.parent
		if parent == "" {
			parent = os.TempDir()
		}
		f, err := os.CreateTemp(parent, "tqp-spill-*")
		if err != nil {
			return fmt.Errorf("spill: creating a pass file: %w", err)
		}
		p.f = f
		p.mgr.files.Add(1)
		p.mgr.mu.Lock()
		if p.mgr.passes == nil {
			p.mgr.passes = make(map[*Pass]struct{})
		}
		p.mgr.passes[p] = struct{}{}
		p.mgr.mu.Unlock()
	}
	if _, err := p.f.Write(p.buf); err != nil {
		return fmt.Errorf("spill: writing %s: %w", p.f.Name(), err)
	}
	p.flushed += int64(len(p.buf))
	p.buf = p.buf[:0]
	return nil
}

// release drops one bucket; the last one takes the file with it.
func (p *Pass) release() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live--
	if p.live > 0 {
		return nil
	}
	return p.discard()
}

// discard closes and removes the pass's file, if it has one; a later write
// starts a fresh file. The caller holds p.mu.
func (p *Pass) discard() error {
	f := p.f
	p.f, p.flushed, p.buf = nil, 0, nil
	if f == nil {
		return nil
	}
	p.mgr.mu.Lock()
	delete(p.mgr.passes, p)
	p.mgr.mu.Unlock()
	cerr := f.Close()
	if err := os.Remove(f.Name()); err != nil {
		return fmt.Errorf("spill: removing %s: %w", f.Name(), err)
	}
	return cerr
}

// extent is one block's place in its pass file.
type extent struct {
	off int64
	n   int
}

// blockRows caps the rows encoded into one columnar block. The cap keeps a
// single corrupt block's blast radius small and a decoded block's planes
// cache-sized.
const blockRows = 256

// BlockRows exposes the block packing cap: callers buffering rows for
// Writer.Write flush at this granularity so their buffering matches the
// writer's own.
const BlockRows = blockRows

// Writer is one bucket of a pass: it appends sequence-tagged rows to the
// pass's file as columnar blocks of up to blockRows rows.
type Writer struct {
	p        *Pass
	ext      []extent
	count    int
	bytes    int64
	memBytes int64
	done     bool
}

// Write encodes b's presented rows, tagged with seqs (one per row: the
// rows' original list positions, the deterministic replay order of the
// spilled partition), straight from the typed planes into blocks of up to
// blockRows rows. The rows' resident cost (column.Batch.MemSize) adds to
// the file's MemBytes.
func (w *Writer) Write(seqs []int, b *column.Batch) error {
	p := w.p
	p.mu.Lock()
	for lo := 0; lo < len(seqs); lo += blockRows {
		hi := min(lo+blockRows, len(seqs))
		start := len(p.buf)
		p.buf = EncodeBlock(p.buf, seqs[lo:hi], b, lo)
		n := len(p.buf) - start
		w.ext = append(w.ext, extent{off: p.flushed + int64(start), n: n})
		w.bytes += int64(n)
		if len(p.buf) >= writerBufSize {
			if err := p.flush(); err != nil {
				p.mu.Unlock()
				return err
			}
		}
	}
	p.mu.Unlock()
	for k := range seqs {
		w.memBytes += b.MemSize(b.RowIndex(k))
	}
	w.count += len(seqs)
	return nil
}

// Finish flushes the pass and seals the bucket into an immutable File. On
// an error the bucket is aborted.
func (w *Writer) Finish() (*File, error) {
	p := w.p
	p.mu.Lock()
	err := p.flush()
	fh := p.f
	p.mu.Unlock()
	if err != nil {
		w.Abort()
		return nil, err
	}
	w.done = true
	p.mgr.bytes.Add(w.bytes)
	return &File{p: p, fh: fh, ext: w.ext, count: w.count, bytes: w.bytes, memBytes: w.memBytes}, nil
}

// Abort drops the half-written bucket; its blocks are dead space in the
// pass's file until the pass is released.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	w.p.release()
}

// File is one finished bucket of a pass.
type File struct {
	p        *Pass
	fh       *os.File // the pass's file; nil when nothing was ever written
	ext      []extent
	count    int
	bytes    int64
	memBytes int64
	removed  bool
}

// Count returns the number of records in the file.
func (f *File) Count() int { return f.count }

// Bytes returns the file's encoded on-disk size.
func (f *File) Bytes() int64 { return f.bytes }

// MemBytes returns the resident cost of the file's rows once decoded —
// the sum of column.Batch.MemSize over its records. The engine's recursion
// decisions and arbiter accounting use this, never the (several-fold
// smaller) encoded size: "fits the share" must mean fits in memory.
func (f *File) MemBytes() int64 { return f.memBytes }

// Open returns a reader over the records in write order.
func (f *File) Open() (*Reader, error) {
	return &Reader{f: f, remaining: f.count}, nil
}

// Remove releases the bucket; the data is consumed, and the disk space
// should return before the operator finishes, not at run cleanup. The pass
// file goes with its last bucket.
func (f *File) Remove() error {
	if f.removed {
		return nil
	}
	f.removed = true
	return f.p.release()
}

// Reader decodes one bucket a block at a time. It reads the bucket's
// extents with ReadAt, those adjoining in the file up to writerBufSize
// bytes at once, into a window, and decodes each block where it lies.
type Reader struct {
	f            *File
	win          []byte // the bytes of extents [winLo, winHi)
	winLo, winHi int
	next         int // the next extent to decode
	seqs         []int
	remaining    int
}

// Rewind repositions the reader at the first record — the repeated-scan
// path of the spilled nested loop. The window is kept, so a bucket that
// fits one window is read from the file only once.
func (r *Reader) Rewind() error {
	r.next, r.remaining = 0, r.f.count
	return nil
}

// fill reads the window starting at extent r.next.
func (r *Reader) fill() error {
	ext := r.f.ext
	lo, hi := r.next, r.next+1
	start, end := ext[lo].off, ext[lo].off+int64(ext[lo].n)
	for hi < len(ext) && ext[hi].off == end && end+int64(ext[hi].n)-start <= writerBufSize {
		end += int64(ext[hi].n)
		hi++
	}
	r.win = slices.Grow(r.win[:0], int(end-start))[:end-start]
	r.winLo, r.winHi = lo, lo // invalid until the read succeeds
	if _, err := r.f.fh.ReadAt(r.win, start); err != nil {
		return torn(err)
	}
	r.winHi = hi
	return nil
}

// Next decodes the next block onto b's column planes, appending its rows,
// and returns their sequence keys; ok=false with a nil error marks the end
// of the bucket, and a short file (fewer records than written) is an error.
// The block's arity must be b's. The seqs slice is valid only until the
// next call (it recycles the reader's scratch).
func (r *Reader) Next(b *column.Batch) (seqs []int, ok bool, err error) {
	if r.remaining == 0 {
		return nil, false, nil
	}
	if r.next < r.winLo || r.next >= r.winHi {
		if r.next >= len(r.f.ext) {
			err = fmt.Errorf("bucket ends %d rows short", r.remaining)
		} else {
			err = r.fill()
		}
	}
	if err == nil {
		e, base := r.f.ext[r.next], r.f.ext[r.winLo].off
		r.seqs, err = decodeFrame(r.win[e.off-base:e.off-base+int64(e.n)], r.seqs[:0], true, b)
	}
	if err == nil && len(r.seqs) > r.remaining {
		err = fmt.Errorf("block holds %d rows, only %d expected", len(r.seqs), r.remaining)
	}
	if err != nil {
		return nil, false, fmt.Errorf("spill: reading %s: %w", r.f.fh.Name(), err)
	}
	r.next++
	r.remaining -= len(r.seqs)
	return r.seqs, true, nil
}

// Close releases the reader's window; the bucket stays until Removed.
func (r *Reader) Close() error {
	r.win, r.winLo, r.winHi = nil, 0, 0
	return nil
}

// kindHetero marks a column whose cells do not share one kind; each cell
// then carries its own kind byte, row-codec style.
const kindHetero = 0xFF

// appendCell appends one value's content (no kind byte) to dst. Content is
// varint for int/time (zigzag), 8-byte LE bits for float, one byte for
// bool, uvarint length + bytes for string. The encoding is exact: a decoded
// value is Equal (and Compare-identical) to the original, so spilled
// partitions replay bit-identically.
func appendCell(dst []byte, v value.Value) []byte {
	switch v.Kind() {
	case value.KindInt:
		return binary.AppendVarint(dst, v.AsInt())
	case value.KindFloat:
		return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.AsFloat()))
	case value.KindString:
		s := v.AsString()
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case value.KindBool:
		b := byte(0)
		if v.AsBool() {
			b = 1
		}
		return append(dst, b)
	case value.KindTime:
		return binary.AppendVarint(dst, int64(v.AsTime()))
	default:
		// Invalid values never reach a relation; the empty cell leaves the
		// unknown kind byte for decode to reject rather than panicking
		// mid-spill.
		return dst
	}
}

// EncodeBlock appends to dst one columnar block of b's presented rows
// [lo, lo+len(seqs)), tagged with seqs, read straight off the column planes
// — the one block encoder. len(seqs) must be positive:
//
//	uvarint payloadLen | payload | uint32le CRC-32C(payload)
//	payload = uvarint nrows | uvarint arity | nrows×uvarint seq | arity×column
//	column  = kind byte | nrows×cell            (all cells share the kind)
//	        | 0xFF | nrows×(kind byte | cell)   (heterogeneous fallback)
//
// A typed plane is homogeneous by construction; a boxed one is written
// homogeneous when its cells in the range share one kind.
func EncodeBlock(dst []byte, seqs []int, b *column.Batch, lo int) []byte {
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(seqs)))
	dst = binary.AppendUvarint(dst, uint64(len(b.Cols)))
	for _, s := range seqs {
		dst = binary.AppendUvarint(dst, uint64(s))
	}
	hi := lo + len(seqs)
	for j := range b.Cols {
		col := &b.Cols[j]
		k := col.Kind
		if k == value.KindInvalid {
			k = col.Vals[b.RowIndex(lo)].Kind()
			for r := lo; r < hi && k != value.KindInvalid; r++ {
				if col.Vals[b.RowIndex(r)].Kind() != k {
					k = value.KindInvalid
				}
			}
		}
		if k != value.KindInvalid {
			dst = appendPlane(append(dst, byte(k)), col, b, lo, hi)
			continue
		}
		dst = append(dst, kindHetero)
		for r := lo; r < hi; r++ {
			v := col.At(b.RowIndex(r))
			dst = appendCell(append(dst, byte(v.Kind())), v)
		}
	}
	// Prefix the payload with its length in place, then seal it.
	n := len(dst) - start
	var hdr [binary.MaxVarintLen64]byte
	h := binary.PutUvarint(hdr[:], uint64(n))
	dst = append(dst, hdr[:h]...)
	copy(dst[start+h:], dst[start:start+n])
	copy(dst[start:], hdr[:h])
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start+h:], castagnoli))
}

// appendPlane appends the cells of the presented rows [lo, hi) of col, a
// column of b whose cells all share one kind, with no kind bytes: a typed
// plane is read unboxed, exactly as appendCell writes its values.
func appendPlane(dst []byte, col *column.Vec, b *column.Batch, lo, hi int) []byte {
	switch col.Kind {
	case value.KindInt, value.KindTime:
		for r := lo; r < hi; r++ {
			dst = binary.AppendVarint(dst, col.Ints[b.RowIndex(r)])
		}
	case value.KindBool:
		for r := lo; r < hi; r++ {
			c := byte(0)
			if col.Ints[b.RowIndex(r)] != 0 {
				c = 1
			}
			dst = append(dst, c)
		}
	case value.KindFloat:
		for r := lo; r < hi; r++ {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(col.Floats[b.RowIndex(r)]))
		}
	case value.KindString:
		for r := lo; r < hi; r++ {
			s := col.Strs[b.RowIndex(r)]
			dst = append(binary.AppendUvarint(dst, uint64(len(s))), s...)
		}
	default:
		for r := lo; r < hi; r++ {
			dst = appendCell(dst, col.Vals[b.RowIndex(r)])
		}
	}
	return dst
}

// BlockReader is what a block sequence decodes from: a segment file behind a
// bufio.Reader. A rows frame's one block is already in
// memory and decodes in place (DecodeBlock).
type BlockReader interface {
	io.Reader
	io.ByteReader
}

// decodeBlock reads one columnar block from br, verifying its length and
// checksum, and decodes it (decodePayload) onto b's column planes, its
// sequence keys appended to seqs. seqs and buf are scratch recycled across
// calls. A reader that is exhausted before the block's first byte returns
// io.EOF itself: the clean end of a block sequence. Every other failure, a
// block torn anywhere included, is a descriptive error that is not io.EOF;
// on one, b may hold part of the block.
func decodeBlock(br BlockReader, seqs []int, buf []byte, b *column.Batch) ([]int, []byte, error) {
	n, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return seqs, buf, io.EOF
	}
	if err != nil {
		return seqs, buf, fmt.Errorf("block header: %w", err)
	}
	if n > maxBlockSize {
		return seqs, buf, fmt.Errorf("block of %d bytes exceeds the %d-byte bound (corrupt header)", n, maxBlockSize)
	}
	// The buffer grows only as payload bytes arrive, so a length claim
	// from a corrupt header or a hostile peer costs what the reader holds,
	// not what the header says.
	payload := buf[:0]
	for len(payload) < int(n) {
		chunk := min(int(n)-len(payload), 64<<10)
		payload = slices.Grow(payload, chunk)
		got, err := io.ReadFull(br, payload[len(payload):len(payload)+chunk])
		payload = payload[:len(payload)+got]
		if err != nil {
			return seqs, payload, fmt.Errorf("block payload: %w", torn(err))
		}
	}
	buf = payload
	var sum [4]byte
	if _, err := io.ReadFull(br, sum[:]); err != nil {
		return seqs, buf, fmt.Errorf("block checksum: %w", torn(err))
	}
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(sum[:]) {
		return seqs, buf, fmt.Errorf("block checksum mismatch (corrupt block)")
	}
	seqs, err = decodePayload(payload, seqs, true, b)
	return seqs, buf, err
}

// DecodeBlock decodes the one block data holds — a rows frame's body —
// in place: the payload is read where it lies, never copied, and its
// strings are cut from one string per block. It appends the rows to b and
// their sequence keys to keys unless keys is nil. Exactly one whole block
// must fill data, and every cell must be of its column's kind in b.Schema;
// anything else is an error, never a panic. On an error b holds an
// unspecified prefix.
func DecodeBlock(data []byte, b *column.Batch, keys []int) ([]int, error) {
	keys, err := decodeFrame(data, keys, keys != nil, b)
	if err != nil {
		return keys, err
	}
	return keys, checkKinds(b)
}

// decodeFrame verifies the one whole block data holds — its length and
// checksum — and decodes it in place (decodePayload): a rows frame's body,
// or a spill block read where it lies in its pass file.
func decodeFrame(data []byte, seqs []int, keep bool, b *column.Batch) ([]int, error) {
	n, h := binary.Uvarint(data)
	if h <= 0 {
		return seqs, fmt.Errorf("block header: truncated varint")
	}
	if n > maxBlockSize {
		return seqs, fmt.Errorf("block of %d bytes exceeds the %d-byte bound (corrupt header)", n, maxBlockSize)
	}
	if rest := uint64(len(data) - h); rest < n+4 {
		return seqs, fmt.Errorf("block of %d bytes torn after %d: %w", n, rest, io.ErrUnexpectedEOF)
	} else if rest > n+4 {
		return seqs, fmt.Errorf("%d bytes past the block", rest-n-4)
	}
	payload := data[h : h+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[h+int(n):]) {
		return seqs, fmt.Errorf("block checksum mismatch (corrupt block)")
	}
	return decodePayload(payload, seqs, keep, b)
}

// decodePayload decodes one verified block payload — the one block
// decoder — appending its rows to b's column planes and, when keep is set,
// their sequence keys to seqs. A column whose block kind is its plane's
// kind decodes straight onto the typed plane, grown once by the block's
// row count; a heterogeneous column, or one of a foreign kind, appends
// cell by cell (a foreign kind demotes its plane, as Vec.Append does). The
// block's strings are sliced from one string per block. On an error b may
// hold part of the block.
func decodePayload(payload []byte, seqs []int, keep bool, b *column.Batch) ([]int, error) {
	d := payloadDecoder{p: payload}
	n := uint64(len(payload))
	nrows64, err := d.uvarint()
	if err != nil {
		return seqs, err
	}
	arity64, err := d.uvarint()
	if err != nil {
		return seqs, err
	}
	nrows, arity := int(nrows64), int(arity64)
	// Sanity bounds before allocating: every seq takes ≥1 byte, and every
	// column takes ≥ 1+nrows bytes (kind byte plus one byte per cell at
	// minimum), so a corrupt header cannot claim more cells than the
	// payload could hold.
	if nrows == 0 || nrows64 > n || arity64 > n {
		return seqs, fmt.Errorf("block claims %d rows × %d columns in %d bytes", nrows64, arity64, n)
	}
	if arity > 0 && uint64(arity)*(nrows64+1) > n {
		return seqs, fmt.Errorf("block claims %d×%d cells in %d bytes", nrows64, arity64, n)
	}
	if arity != len(b.Cols) {
		return seqs, fmt.Errorf("block holds %d-column rows, want %d", arity, len(b.Cols))
	}
	if keep {
		seqs = slices.Grow(seqs, nrows)
	}
	for i := 0; i < nrows; i++ {
		s, err := d.uvarint()
		if err != nil {
			return seqs, err
		}
		if keep {
			seqs = append(seqs, int(s))
		}
	}
	for j := range b.Cols {
		col := &b.Cols[j]
		if d.pos >= len(d.p) {
			return seqs, fmt.Errorf("block truncated at column %d", j)
		}
		kind := value.Kind(d.p[d.pos])
		d.pos++
		if kind == col.Kind && kind != value.KindInvalid {
			if err := d.plane(col, nrows); err != nil {
				return seqs, err
			}
			continue
		}
		for i := 0; i < nrows; i++ {
			k := kind
			if kind == kindHetero {
				if d.pos >= len(d.p) {
					return seqs, fmt.Errorf("block truncated at column %d row %d", j, i)
				}
				k = value.Kind(d.p[d.pos])
				d.pos++
			}
			v, err := d.cell(k)
			if err != nil {
				return seqs, err
			}
			col.Append(v)
		}
	}
	if d.pos != len(d.p) {
		return seqs, fmt.Errorf("block has %d trailing bytes", len(d.p)-d.pos)
	}
	b.N += nrows
	return seqs, nil
}

// payloadDecoder reads one verified block payload from its start.
type payloadDecoder struct {
	p    []byte
	pos  int
	strs string // the payload as one string, once a string cell needs it
}

func (d *payloadDecoder) uvarint() (uint64, error) {
	v, k := binary.Uvarint(d.p[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("truncated varint in block")
	}
	d.pos += k
	return v, nil
}

func (d *payloadDecoder) varint() (int64, error) {
	v, k := binary.Varint(d.p[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("truncated varint in block")
	}
	d.pos += k
	return v, nil
}

// str reads one length-prefixed string, sliced from the block's string.
func (d *payloadDecoder) str() (string, error) {
	l, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(len(d.p)-d.pos) {
		return "", fmt.Errorf("block truncated in string value")
	}
	if d.strs == "" {
		d.strs = string(d.p)
	}
	s := d.strs[d.pos : d.pos+int(l)]
	d.pos += int(l)
	return s, nil
}

// cell reads one cell of kind k as a value: the per-cell path.
func (d *payloadDecoder) cell(k value.Kind) (value.Value, error) {
	switch k {
	case value.KindInt:
		v, err := d.varint()
		return value.Int(v), err
	case value.KindFloat:
		if d.pos+8 > len(d.p) {
			return value.Value{}, fmt.Errorf("block truncated in float value")
		}
		v := value.Float(math.Float64frombits(binary.LittleEndian.Uint64(d.p[d.pos:])))
		d.pos += 8
		return v, nil
	case value.KindString:
		s, err := d.str()
		return value.String_(s), err
	case value.KindBool:
		if d.pos >= len(d.p) {
			return value.Value{}, fmt.Errorf("block truncated in bool value")
		}
		v := value.Bool(d.p[d.pos] != 0)
		d.pos++
		return v, nil
	case value.KindTime:
		v, err := d.varint()
		return value.Time(period.Chronon(v)), err
	default:
		return value.Value{}, fmt.Errorf("block holds unknown value kind %d", k)
	}
}

// plane decodes n cells of col's own kind straight onto its typed plane,
// grown once: the values are exactly those cell would box, unboxed.
func (d *payloadDecoder) plane(col *column.Vec, n int) error {
	switch col.Kind {
	case value.KindInt, value.KindTime:
		ints := slices.Grow(col.Ints, n)
		for i := 0; i < n; i++ {
			v, k := binary.Varint(d.p[d.pos:])
			if k <= 0 {
				col.Ints = ints
				return fmt.Errorf("truncated varint in block")
			}
			d.pos += k
			ints = append(ints, v)
		}
		col.Ints = ints
	case value.KindBool:
		if n > len(d.p)-d.pos {
			return fmt.Errorf("block truncated in bool value")
		}
		ints := slices.Grow(col.Ints, n)
		for _, c := range d.p[d.pos : d.pos+n] {
			v := int64(0)
			if c != 0 {
				v = 1
			}
			ints = append(ints, v)
		}
		d.pos += n
		col.Ints = ints
	case value.KindFloat:
		if n > (len(d.p)-d.pos)/8 {
			return fmt.Errorf("block truncated in float value")
		}
		floats := slices.Grow(col.Floats, n)
		for i := 0; i < n; i++ {
			floats = append(floats, math.Float64frombits(binary.LittleEndian.Uint64(d.p[d.pos:])))
			d.pos += 8
		}
		col.Floats = floats
	case value.KindString:
		strs := slices.Grow(col.Strs, n)
		for i := 0; i < n; i++ {
			s, err := d.str()
			if err != nil {
				col.Strs = strs
				return err
			}
			strs = append(strs, s)
		}
		col.Strs = strs
	}
	return nil
}

// checkKinds reports a column whose plane is not its schema attribute's
// kind: a block cell the schema does not admit demoted it.
func checkKinds(b *column.Batch) error {
	for j := range b.Cols {
		if want := b.Schema.At(j).Kind; b.Cols[j].Kind != want {
			return fmt.Errorf("attribute %s expects %s cells, the block holds others", b.Schema.At(j).Name, want)
		}
	}
	return nil
}

// maxBlockSize bounds a single block; a corrupt length prefix must not
// drive a multi-gigabyte allocation.
const maxBlockSize = 64 << 20

// torn reports a reader that ran dry inside a block as the truncation it
// is: io.EOF is reserved for the clean end between blocks.
func torn(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// DecodeBlocks decodes the blocks r holds up to its end — a segment file's
// blocks, or the one block of a rows frame — appending their rows to b,
// and their sequence keys to keys unless keys is nil. Every cell must be of
// its column's kind in b.Schema. A torn or corrupt block, bytes past the
// last whole block, and a row the schema does not admit are all errors,
// never a panic: the store reports them as corruption, the client as a
// protocol error. On an error b holds an unspecified prefix.
func DecodeBlocks(r BlockReader, b *column.Batch, keys []int) ([]int, error) {
	var seqs []int
	var buf []byte
	for {
		var err error
		seqs, buf, err = decodeBlock(r, seqs[:0], buf, b)
		if err == io.EOF {
			return keys, nil
		}
		if err != nil {
			return keys, err
		}
		if err := checkKinds(b); err != nil {
			return keys, err
		}
		if keys != nil {
			keys = append(keys, seqs...)
		}
	}
}
