// Package spill implements the disk half of the exec engine's
// memory-bounded execution mode — temp-file spill partitions holding
// sequence-tagged tuples — and the checksummed columnar block those
// partitions are made of.
//
// A Manager owns one run's spill directory (created lazily on first write,
// removed wholesale by Cleanup), hands out Writers, and tracks the total
// bytes written for the engine's Stats. A Writer appends tuples and is
// Finished into an immutable File, which Opens into a Reader streaming the
// tuples back in write order. On disk, tuples are grouped into columnar
// blocks: a block holds same-arity tuples with each attribute's values
// packed contiguously under a single kind byte, so the per-value kind tag
// of a row codec is paid once per column instead of once per cell and
// decode reconstructs a whole block of tuples from one backing allocation.
// Every block carries its own row count, its rows' sequence keys, its
// length and a CRC-32C of its payload, so a truncated or corrupted block is
// detected at read time instead of silently corrupting a query result.
//
// The block is the one row codec of the system, with three carriers: spill
// partitions, the persistent store's segment files, and the server's rows
// frames, each of which carries one block of a result (its sequence keys
// are a pushed-down fragment's provenance). EncodeBlock writes a block and
// DecodeBlocks reads blocks back against a schema, so a torn segment and a
// hostile peer's frame fail through the same code.
//
// The codec is also the accounting currency of the memory arbiter:
// TupleMemSize estimates a tuple's resident bytes, so the spill decision
// and the spilled representation agree about what "too big" means.
package spill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// castagnoli is the CRC-32C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Manager owns one execution run's spill directory. The zero-ish Manager
// returned by NewManager creates no directory until the first file is
// created, so unbudgeted and unspilled runs never touch the filesystem.
type Manager struct {
	parent string // directory to create the spill dir under; "" = os.TempDir()

	mu   sync.Mutex
	dir  string
	next int

	bytes atomic.Int64
}

// NewManager returns a manager that will create its spill directory under
// parent ("" means the system temp directory).
func NewManager(parent string) *Manager { return &Manager{parent: parent} }

// Dir returns the spill directory, or "" when nothing has spilled yet.
func (m *Manager) Dir() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dir
}

// BytesWritten is the total encoded bytes appended across all writers.
func (m *Manager) BytesWritten() int64 { return m.bytes.Load() }

// Create opens a fresh spill file for writing.
func (m *Manager) Create() (*Writer, error) {
	m.mu.Lock()
	if m.dir == "" {
		parent := m.parent
		if parent == "" {
			parent = os.TempDir()
		}
		dir, err := os.MkdirTemp(parent, "tqp-spill-")
		if err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("spill: creating spill directory: %w", err)
		}
		m.dir = dir
	}
	name := filepath.Join(m.dir, fmt.Sprintf("part-%06d", m.next))
	m.next++
	m.mu.Unlock()

	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, fmt.Errorf("spill: creating %s: %w", name, err)
	}
	return &Writer{mgr: m, f: f, bw: bufio.NewWriterSize(f, writerBufSize)}, nil
}

// Cleanup removes the spill directory and everything in it. It is safe to
// call when nothing ever spilled, and to call more than once.
func (m *Manager) Cleanup() error {
	m.mu.Lock()
	dir := m.dir
	m.dir = ""
	m.mu.Unlock()
	if dir == "" {
		return nil
	}
	return os.RemoveAll(dir)
}

// writerBufSize is each Writer's (and Reader's) buffer. Spill fan-out keeps
// several writers open at once, so the buffer is deliberately modest; the
// engine's partition count is chosen so that fan-out × buffer stays well
// inside the memory budget share.
const writerBufSize = 16 << 10

// blockRows caps the tuples buffered into one columnar block. The cap
// bounds the writer's resident buffer (the arbiter already accounts the
// tuples themselves, which stay referenced until the flush) and keeps a
// single corrupt block's blast radius small.
const blockRows = 256

// BlockRows exposes the block packing cap: callers batching rows for
// AppendBlockCols flush at this granularity so their buffering matches the
// writer's own.
const BlockRows = blockRows

// Writer appends sequence-tagged tuples to one spill file, packing them
// into columnar blocks of up to blockRows same-arity tuples. Appended
// tuples are referenced, not copied, until their block flushes — safe
// because engine tuples are immutable once built.
type Writer struct {
	mgr      *Manager
	f        *os.File
	bw       *bufio.Writer
	buf      []byte
	seqs     []int
	pend     []relation.Tuple
	arity    int
	count    int
	bytes    int64
	memBytes int64
}

// Append buffers one tuple. seq is the tuple's sequence key (its original
// list position — the deterministic replay order of the spilled partition).
// A full buffer or an arity change flushes the pending block.
func (w *Writer) Append(seq int, t relation.Tuple) error {
	if len(w.pend) > 0 && len(t) != w.arity {
		if err := w.flush(); err != nil {
			return err
		}
	}
	if len(w.pend) == 0 {
		w.arity = len(t)
	}
	w.pend = append(w.pend, t)
	w.seqs = append(w.seqs, seq)
	w.count++
	w.memBytes += TupleMemSize(t)
	if len(w.pend) >= blockRows {
		return w.flush()
	}
	return nil
}

// flush encodes and writes the pending block.
func (w *Writer) flush() error {
	if len(w.pend) == 0 {
		return nil
	}
	w.buf = EncodeBlock(w.buf[:0], w.seqs, w.pend)
	w.seqs = w.seqs[:0]
	w.pend = w.pend[:0]
	if _, err := w.bw.Write(w.buf); err != nil {
		return fmt.Errorf("spill: writing %s: %w", w.f.Name(), err)
	}
	w.bytes += int64(len(w.buf))
	return nil
}

// AppendBlockCols appends len(seqs) same-arity rows read through a cell
// accessor, encoding them straight into columnar blocks — the batch
// pipeline's write path, which never materializes a tuple. Rows chunk at
// blockRows; any tuples pending from Append flush first so interleaved use
// stays block-aligned. memBytes is the rows' resident cost in TupleMemSize
// currency (the caller reads it off its column planes), keeping the file's
// MemBytes — and with it the engine's recursion decisions — identical to
// the tuple write path's.
func (w *Writer) AppendBlockCols(seqs []int, arity int, memBytes int64, cell func(row, col int) value.Value) error {
	if len(seqs) == 0 {
		return nil
	}
	if len(w.pend) > 0 {
		if err := w.flush(); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(seqs); lo += blockRows {
		hi := lo + blockRows
		if hi > len(seqs) {
			hi = len(seqs)
		}
		block := cell
		if lo > 0 {
			lo := lo
			block = func(row, col int) value.Value { return cell(lo+row, col) }
		}
		w.buf = EncodeBlockCols(w.buf[:0], seqs[lo:hi], arity, block)
		if _, err := w.bw.Write(w.buf); err != nil {
			return fmt.Errorf("spill: writing %s: %w", w.f.Name(), err)
		}
		w.bytes += int64(len(w.buf))
	}
	w.count += len(seqs)
	w.memBytes += memBytes
	return nil
}

// Count returns the tuples appended so far.
func (w *Writer) Count() int { return w.count }

// Bytes returns the encoded bytes of the blocks flushed so far.
func (w *Writer) Bytes() int64 { return w.bytes }

// Finish flushes and closes the writer, returning the immutable file.
func (w *Writer) Finish() (*File, error) {
	if err := w.flush(); err != nil {
		w.f.Close()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return nil, fmt.Errorf("spill: flushing %s: %w", w.f.Name(), err)
	}
	name := w.f.Name()
	if err := w.f.Close(); err != nil {
		return nil, fmt.Errorf("spill: closing %s: %w", name, err)
	}
	w.mgr.bytes.Add(w.bytes)
	return &File{path: name, count: w.count, bytes: w.bytes, memBytes: w.memBytes}, nil
}

// Abort closes and deletes the half-written file.
func (w *Writer) Abort() {
	w.f.Close()
	os.Remove(w.f.Name())
}

// File is one finished spill file.
type File struct {
	path     string
	count    int
	bytes    int64
	memBytes int64
}

// Count returns the number of records in the file.
func (f *File) Count() int { return f.count }

// Bytes returns the file's encoded on-disk size.
func (f *File) Bytes() int64 { return f.bytes }

// MemBytes returns the resident cost of the file's tuples once decoded —
// the sum of TupleMemSize over its records. The engine's recursion
// decisions and arbiter accounting use this, never the (several-fold
// smaller) encoded size: "fits the share" must mean fits in memory.
func (f *File) MemBytes() int64 { return f.memBytes }

// Open returns a reader streaming the records in write order.
func (f *File) Open() (*Reader, error) {
	file, err := os.Open(f.path)
	if err != nil {
		return nil, fmt.Errorf("spill: opening %s: %w", f.path, err)
	}
	return &Reader{f: file, br: bufio.NewReaderSize(file, writerBufSize), remaining: f.count, total: f.count}, nil
}

// Remove deletes the file; the data is consumed and the disk space should
// return before the operator finishes, not at run cleanup.
func (f *File) Remove() error { return os.Remove(f.path) }

// Reader streams one spill file's tuples, decoding a columnar block at a
// time and handing out its tuples in write order.
type Reader struct {
	f         *os.File
	br        *bufio.Reader
	buf       []byte
	remaining int
	total     int
	blkSeqs   []int
	blkRows   []relation.Tuple
	blkPos    int
}

// Rewind repositions the reader at the first record, reusing the open file
// handle and buffer — the repeated-scan path of the spilled nested loop,
// which would otherwise pay an open/close and a fresh buffer per pass.
func (r *Reader) Rewind() error {
	if _, err := r.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("spill: rewinding %s: %w", r.f.Name(), err)
	}
	r.br.Reset(r.f)
	r.remaining = r.total
	r.blkSeqs, r.blkRows, r.blkPos = r.blkSeqs[:0], r.blkRows[:0], 0
	return nil
}

// Next returns the next record. ok=false with a nil error marks the end of
// the file; a short file (fewer records than written) is an error.
func (r *Reader) Next() (seq int, t relation.Tuple, ok bool, err error) {
	if r.blkPos == len(r.blkRows) {
		if r.remaining == 0 {
			return 0, nil, false, nil
		}
		r.blkSeqs, r.blkRows, r.buf, err = decodeBlock(r.br, r.blkSeqs[:0], r.buf, r.blkRows[:0])
		if err != nil {
			return 0, nil, false, fmt.Errorf("spill: reading %s: %w", r.f.Name(), err)
		}
		if len(r.blkRows) > r.remaining {
			return 0, nil, false, fmt.Errorf("spill: reading %s: block holds %d tuples, only %d expected", r.f.Name(), len(r.blkRows), r.remaining)
		}
		r.blkPos = 0
	}
	seq, t = r.blkSeqs[r.blkPos], r.blkRows[r.blkPos]
	r.blkPos++
	r.remaining--
	return seq, t, true, nil
}

// NextBlockCols decodes the next block straight into the caller's column
// storage — the batch pipeline's read path, which never materializes a
// tuple: put receives the block's cells (block-local row, column) column by
// column, each column's in row order, and the rows' sequence keys are
// returned. ok=false with a nil error marks the end of the file. The block
// must hold arity-column rows, and the seqs slice is valid only until the
// next call (it recycles the reader's scratch). A reader is driven through
// either Next or NextBlockCols, not both.
func (r *Reader) NextBlockCols(arity int, put func(row, col int, v value.Value)) (seqs []int, ok bool, err error) {
	if r.remaining == 0 {
		return nil, false, nil
	}
	begin := func(_, a int) error {
		if a != arity {
			return fmt.Errorf("block holds %d-column rows, want %d", a, arity)
		}
		return nil
	}
	r.blkSeqs, r.buf, err = decodeBlockInto(r.br, r.blkSeqs[:0], r.buf, begin, put)
	if err == nil && len(r.blkSeqs) > r.remaining {
		err = fmt.Errorf("block holds %d tuples, only %d expected", len(r.blkSeqs), r.remaining)
	}
	if err != nil {
		return nil, false, fmt.Errorf("spill: reading %s: %w", r.f.Name(), err)
	}
	r.remaining -= len(r.blkSeqs)
	return r.blkSeqs, true, nil
}

// Close releases the file handle.
func (r *Reader) Close() error { return r.f.Close() }

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

// EncodeBlockCols appends one columnar block of len(seqs) arity-column
// rows, read through a cell accessor, to dst — the one block encoder, shared
// by tuples (EncodeBlock), column planes (AppendBlockCols) and the server's
// rows frames (read through relation.Relation.Cell). len(seqs) must be
// positive:
//
//	uvarint payloadLen | payload | uint32le CRC-32C(payload)
//	payload = uvarint nrows | uvarint arity | nrows×uvarint seq | arity×column
//	column  = kind byte | nrows×cell            (all cells share the kind)
//	        | 0xFF | nrows×(kind byte | cell)   (heterogeneous fallback)
func EncodeBlockCols(dst []byte, seqs []int, arity int, cell func(row, col int) value.Value) []byte {
	nrows := len(seqs)
	payload := binary.AppendUvarint(nil, uint64(nrows))
	payload = binary.AppendUvarint(payload, uint64(arity))
	for _, s := range seqs {
		payload = binary.AppendUvarint(payload, uint64(s))
	}
	for j := 0; j < arity; j++ {
		// Encode the column as homogeneous in one pass over the accessor,
		// and fall back to the per-cell kinds only if a cell disagrees.
		mark := len(payload)
		k := cell(0, j).Kind()
		homog := k != value.KindInvalid
		payload = append(payload, byte(k))
		for i := 0; homog && i < nrows; i++ {
			v := cell(i, j)
			if v.Kind() != k {
				homog = false
				break
			}
			payload = appendCell(payload, v)
		}
		if !homog {
			payload = append(payload[:mark], kindHetero)
			for i := 0; i < nrows; i++ {
				v := cell(i, j)
				payload = append(payload, byte(v.Kind()))
				payload = appendCell(payload, v)
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, castagnoli))
}

// BlockReader is what blocks decode from: a spill file or a segment file
// behind a bufio.Reader, or a rows frame's bytes behind a bytes.Reader.
type BlockReader interface {
	io.Reader
	io.ByteReader
}

// decodeBlock reads one columnar block and appends its rows to rows as
// tuples sharing one freshly allocated backing array, so callers may retain
// them past the next block. seqs and buf are scratch recycled across calls.
func decodeBlock(r BlockReader, seqs []int, buf []byte, rows []relation.Tuple) ([]int, []relation.Tuple, []byte, error) {
	var vals []value.Value
	arity := 0
	begin := func(nrows, a int) error {
		arity = a
		vals = make([]value.Value, nrows*arity)
		rows = slices.Grow(rows, nrows)
		for i := 0; i < nrows; i++ {
			rows = append(rows, relation.Tuple(vals[i*arity:(i+1)*arity:(i+1)*arity]))
		}
		return nil
	}
	seqs, buf, err := decodeBlockInto(r, seqs, buf, begin, func(i, j int, v value.Value) { vals[i*arity+j] = v })
	return seqs, rows, buf, err
}

// decodeBlockInto reads one columnar block — the one block decoder —
// verifying length and checksum, and hands its cells to put column by
// column (each column's in row order) once begin has accepted the block's
// shape. seqs and buf are scratch recycled across calls. A reader that is
// exhausted before the block's first byte returns io.EOF itself: the clean
// end of a block sequence. Every other failure, a block torn anywhere
// included, is a descriptive error that is not io.EOF.
func decodeBlockInto(br BlockReader, seqs []int, buf []byte, begin func(nrows, arity int) error, put func(row, col int, v value.Value)) ([]int, []byte, error) {
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

	pos := 0
	readUvarint := func() (uint64, error) {
		v, k := binary.Uvarint(payload[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("truncated varint in block")
		}
		pos += k
		return v, nil
	}
	readVarint := func() (int64, error) {
		v, k := binary.Varint(payload[pos:])
		if k <= 0 {
			return 0, fmt.Errorf("truncated varint in block")
		}
		pos += k
		return v, nil
	}
	readCell := func(kind value.Kind) (value.Value, error) {
		switch kind {
		case value.KindInt:
			v, err := readVarint()
			if err != nil {
				return value.Value{}, err
			}
			return value.Int(v), nil
		case value.KindFloat:
			if pos+8 > len(payload) {
				return value.Value{}, fmt.Errorf("block truncated in float value")
			}
			v := value.Float(math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:])))
			pos += 8
			return v, nil
		case value.KindString:
			l, err := readUvarint()
			if err != nil {
				return value.Value{}, err
			}
			if pos+int(l) > len(payload) {
				return value.Value{}, fmt.Errorf("block truncated in string value")
			}
			v := value.String_(string(payload[pos : pos+int(l)]))
			pos += int(l)
			return v, nil
		case value.KindBool:
			if pos >= len(payload) {
				return value.Value{}, fmt.Errorf("block truncated in bool value")
			}
			v := value.Bool(payload[pos] != 0)
			pos++
			return v, nil
		case value.KindTime:
			v, err := readVarint()
			if err != nil {
				return value.Value{}, err
			}
			return value.Time(period.Chronon(v)), nil
		default:
			return value.Value{}, fmt.Errorf("block holds unknown value kind %d", kind)
		}
	}

	nrows64, err := readUvarint()
	if err != nil {
		return seqs, buf, err
	}
	arity64, err := readUvarint()
	if err != nil {
		return seqs, buf, err
	}
	nrows, arity := int(nrows64), int(arity64)
	// Sanity bounds before allocating: every seq takes ≥1 byte, and every
	// column takes ≥ 1+nrows bytes (kind byte plus one byte per cell at
	// minimum), so a corrupt header cannot claim more cells than the
	// payload could hold.
	if nrows == 0 || nrows64 > n || arity64 > n {
		return seqs, buf, fmt.Errorf("block claims %d rows × %d columns in %d bytes", nrows64, arity64, n)
	}
	if arity > 0 && uint64(arity)*(nrows64+1) > n {
		return seqs, buf, fmt.Errorf("block claims %d×%d cells in %d bytes", nrows64, arity64, n)
	}
	for i := 0; i < nrows; i++ {
		s, err := readUvarint()
		if err != nil {
			return seqs, buf, err
		}
		seqs = append(seqs, int(s))
	}
	if err := begin(nrows, arity); err != nil {
		return seqs, buf, err
	}
	for j := 0; j < arity; j++ {
		if pos >= len(payload) {
			return seqs, buf, fmt.Errorf("block truncated at column %d", j)
		}
		kind := value.Kind(payload[pos])
		pos++
		if kind == kindHetero {
			for i := 0; i < nrows; i++ {
				if pos >= len(payload) {
					return seqs, buf, fmt.Errorf("block truncated at column %d row %d", j, i)
				}
				ck := value.Kind(payload[pos])
				pos++
				v, err := readCell(ck)
				if err != nil {
					return seqs, buf, err
				}
				put(i, j, v)
			}
			continue
		}
		for i := 0; i < nrows; i++ {
			v, err := readCell(kind)
			if err != nil {
				return seqs, buf, err
			}
			put(i, j, v)
		}
	}
	if pos != len(payload) {
		return seqs, buf, fmt.Errorf("block has %d trailing bytes", len(payload)-pos)
	}
	return seqs, buf, nil
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

// EncodeBlock appends one columnar block of same-arity tuples to dst (see
// EncodeBlockCols for the format) and returns the extended slice. It is the
// codec's face for the block's other carriers: the persistent store's
// segment files and the server's rows frames carry exactly these blocks, so
// every carrier shares one codec, one checksum and one corruption story.
// len(seqs) must equal len(rows), both non-empty, and rows must share one
// arity; the store chunks at BlockRows to match the writer's own packing.
func EncodeBlock(dst []byte, seqs []int, rows []relation.Tuple) []byte {
	return EncodeBlockCols(dst, seqs, len(rows[0]), func(i, j int) value.Value { return rows[i][j] })
}

// DecodeBlocks decodes the blocks r holds up to its end — a segment file's
// blocks, or the one block of a rows frame — and appends their rows to rows,
// and their sequence keys to keys unless keys is nil. Every row must fit sch
// (arity and cell kinds). A torn or corrupt block, bytes past the last whole
// block, and a row sch does not admit are all errors, never a panic: the
// store reports them as corruption, the client as a protocol error.
func DecodeBlocks(r BlockReader, sch *schema.Schema, rows []relation.Tuple, keys []int) ([]relation.Tuple, []int, error) {
	var seqs []int
	var buf []byte
	for {
		from := len(rows)
		var err error
		seqs, rows, buf, err = decodeBlock(r, seqs[:0], buf, rows)
		if err == io.EOF {
			return rows, keys, nil
		}
		if err != nil {
			return rows[:from], keys, err
		}
		for _, t := range rows[from:] {
			if err := t.CheckAgainst(sch); err != nil {
				return rows[:from], keys, err
			}
		}
		if keys != nil {
			keys = append(keys, seqs...)
		}
	}
}

// tupleOverhead approximates the resident cost of one tuple beyond its
// values: the slice header plus allocator slack.
const tupleOverhead = 48

// valueSize is the resident size of one value.Value struct.
const valueSize = 40

// TupleMemSize estimates the resident bytes of one tuple — the accounting
// currency of the engine's memory arbiter. It deliberately leans high
// (headers and allocator slack included): the budget is a working-set
// bound, and over-counting errs toward spilling early rather than blowing
// the budget.
func TupleMemSize(t relation.Tuple) int64 {
	n := RowMemSize(len(t))
	for _, v := range t {
		if v.Kind() == value.KindString {
			n += int64(len(v.AsString()))
		}
	}
	return n
}

// RowMemSize is TupleMemSize's fixed part for an arity-column row. Callers
// accounting rows that live on column planes (no tuple to hand to
// TupleMemSize) add string payload bytes on top of this, keeping the two
// pipelines' arbiter accounting identical.
func RowMemSize(arity int) int64 { return int64(tupleOverhead) + int64(arity)*valueSize }
