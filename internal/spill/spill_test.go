package spill

import (
	"bytes"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"tqp/internal/column"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

func sampleTuples() []relation.Tuple {
	return []relation.Tuple{
		relation.NewTuple(value.Int(0), value.String_(""), value.Bool(false), value.Time(0)),
		relation.NewTuple(value.Int(-1), value.String_("hello\x00world"), value.Bool(true), value.Time(period.NowMarker)),
		relation.NewTuple(value.Int(1<<62+1), value.Float(3.25), value.Float(math.NaN()), value.Time(-5)),
		relation.NewTuple(value.Float(math.Inf(-1)), value.Float(-0.0), value.String_("ünïcode — 界"), value.Int(math.MinInt64)),
		{},
	}
}

// batchOf holds same-arity rows on boxed planes, so any mix of kinds
// encodes exactly as typed planes of those kinds would.
func batchOf(arity int, rows []relation.Tuple) *column.Batch {
	b := &column.Batch{Cols: make([]column.Vec, arity), N: len(rows)}
	for c := range b.Cols {
		b.Cols[c] = column.NewVec(value.KindInvalid, len(rows))
		for _, t := range rows {
			b.Cols[c].Append(t[c])
		}
	}
	return b
}

// writeRows writes rows tagged seqs, one Write per run of equal arity.
func writeRows(w *Writer, seqs []int, rows []relation.Tuple) error {
	for lo := 0; lo < len(rows); {
		hi := lo + 1
		for hi < len(rows) && len(rows[hi]) == len(rows[lo]) {
			hi++
		}
		if err := w.Write(seqs[lo:hi], batchOf(len(rows[lo]), rows[lo:hi])); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}

// seqsOf returns the keys 0, step, 2·step, … for n rows.
func seqsOf(n, step int) []int {
	seqs := make([]int, n)
	for i := range seqs {
		seqs[i] = i * step
	}
	return seqs
}

// rowReader hands out a spill file's rows one at a time, decoding each
// block onto a fresh batch of the arity the caller expects next.
type rowReader struct {
	r    *Reader
	b    *column.Batch
	seqs []int
	pos  int
}

func (rr *rowReader) next(arity int) (seq int, t relation.Tuple, ok bool, err error) {
	if rr.b == nil || rr.pos == rr.b.N {
		rr.b, rr.pos = batchOf(arity, nil), 0
		if rr.seqs, ok, err = rr.r.Next(rr.b); !ok || err != nil {
			rr.b = nil
			return 0, nil, ok, err
		}
	}
	t = make(relation.Tuple, len(rr.b.Cols))
	rr.b.FillRow(t, rr.pos)
	seq = rr.seqs[rr.pos]
	rr.pos++
	return seq, t, true, nil
}

func (rr *rowReader) rewind() error {
	rr.b = nil
	return rr.r.Rewind()
}

// TestRoundTrip pins the codec: every value kind, extreme ints, NaN/Inf
// floats and empty tuples must decode Equal, with sequence keys intact.
func TestRoundTrip(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	tuples := sampleTuples()
	if err := writeRows(w, seqsOf(len(tuples), 7), tuples); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != len(tuples) {
		t.Fatalf("file count %d, want %d", f.Count(), len(tuples))
	}
	if f.Bytes() <= 0 || m.BytesWritten() != f.Bytes() {
		t.Fatalf("byte accounting: file %d, manager %d", f.Bytes(), m.BytesWritten())
	}
	r, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	for i, want := range tuples {
		seq, got, ok, err := rr.next(len(want))
		if err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
		if seq != i*7 {
			t.Fatalf("record %d: seq %d, want %d", i, seq, i*7)
		}
		if !got.Equal(want) {
			t.Fatalf("record %d: decoded %s, want %s", i, got, want)
		}
	}
	if _, _, ok, err := rr.next(0); ok || err != nil {
		t.Fatalf("expected clean end of file, got ok=%v err=%v", ok, err)
	}
	// NaN must stay NaN through the codec (Equal treats NaN==NaN).
	if c := tuples[2][2].Compare(tuples[2][2]); c != 0 {
		t.Fatalf("NaN self-compare = %d", c)
	}

	// Rewind replays the records from the top on the same handle — the
	// spilled nested loop's repeated-scan path.
	if err := rr.rewind(); err != nil {
		t.Fatal(err)
	}
	seq, got, ok, err := rr.next(len(tuples[0]))
	if err != nil || !ok || seq != 0 || !got.Equal(tuples[0]) {
		t.Fatalf("after Rewind: seq=%d ok=%v err=%v", seq, ok, err)
	}

	// MemBytes carries the resident (decoded) cost, which exceeds the
	// encoded size for these tuples.
	if f.MemBytes() <= f.Bytes() {
		t.Fatalf("MemBytes %d should exceed encoded Bytes %d", f.MemBytes(), f.Bytes())
	}
}

// TestCorruptionDetected flips one payload byte and expects the checksum to
// catch it; truncation must also surface as an error, not a short read.
func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir)
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	rows := sampleTuples()[:4] // one arity, so readAll can read it whole
	if err := writeRows(w, seqsOf(len(rows), 1), rows); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := readAll(f); err != nil {
		t.Fatalf("intact file: %v", err)
	}

	var path string
	err = filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			path = p
		}
		return err
	})
	if err != nil || path == "" {
		t.Fatalf("locating spill file: %v (path %q)", err, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := readAll(f); err == nil {
		t.Fatal("bit flip went undetected")
	}

	if err := os.WriteFile(path, data[:len(data)-3], 0o600); err != nil {
		t.Fatal(err)
	}
	if err := readAll(f); err == nil {
		t.Fatal("truncation went undetected")
	}
}

func readAll(f *File) error {
	r, err := f.Open()
	if err != nil {
		return err
	}
	defer r.Close()
	for {
		_, ok, err := r.Next(batchOf(4, nil))
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
}

// TestBlockSpanning drives the codec across many block boundaries: more
// tuples than one block holds, a mid-file Rewind, and sequence keys intact
// throughout.
func TestBlockSpanning(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	const n = 3*blockRows + 17
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.NewTuple(value.Int(int64(i)), value.String_("row"), value.Time(period.Chronon(i%5)))
	}
	if err := writeRows(w, seqsOf(n, 3), tuples); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if f.Count() != n {
		t.Fatalf("count %d, want %d", f.Count(), n)
	}
	r, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	check := func(from int) {
		t.Helper()
		for i := from; i < n; i++ {
			seq, got, ok, err := rr.next(3)
			if err != nil || !ok {
				t.Fatalf("tuple %d: ok=%v err=%v", i, ok, err)
			}
			if seq != i*3 || !got.Equal(tuples[i]) {
				t.Fatalf("tuple %d: seq=%d got %s", i, seq, got)
			}
		}
		if _, _, ok, err := rr.next(3); ok || err != nil {
			t.Fatalf("want clean EOF, got ok=%v err=%v", ok, err)
		}
	}
	// Read halfway, rewind from inside a block, then read everything.
	for i := 0; i < n/2; i++ {
		if _, _, ok, err := rr.next(3); !ok || err != nil {
			t.Fatalf("priming read %d: ok=%v err=%v", i, ok, err)
		}
	}
	if err := rr.rewind(); err != nil {
		t.Fatal(err)
	}
	check(0)
	if err := rr.rewind(); err != nil {
		t.Fatal(err)
	}
	check(0)
}

// TestBlockArityChange: runs of shifting arity written to one file replay
// the exact sequence — the schema is not per-file, it is per-block.
func TestBlockArityChange(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	var tuples []relation.Tuple
	for i := 0; i < 40; i++ {
		var tp relation.Tuple
		switch i % 3 {
		case 0:
			tp = relation.NewTuple(value.Int(int64(i)))
		case 1:
			tp = relation.NewTuple(value.Int(int64(i)), value.Bool(i%2 == 0))
		default:
			tp = relation.Tuple{}
		}
		tuples = append(tuples, tp)
	}
	if err := writeRows(w, seqsOf(len(tuples), 1), tuples); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	for i, want := range tuples {
		seq, got, ok, err := rr.next(len(want))
		if err != nil || !ok || seq != i || !got.Equal(want) {
			t.Fatalf("tuple %d: seq=%d ok=%v err=%v got %s want %s", i, seq, ok, err, got, want)
		}
	}
	if _, _, ok, _ := rr.next(0); ok {
		t.Fatal("trailing tuples after the last arity group")
	}
}

// TestBlockHeterogeneousColumn: a column whose cells disagree on kind takes
// the per-cell fallback and still round-trips exactly.
func TestBlockHeterogeneousColumn(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	tuples := []relation.Tuple{
		relation.NewTuple(value.Int(1), value.Int(10)),
		relation.NewTuple(value.String_("two"), value.Int(20)),
		relation.NewTuple(value.Float(3.5), value.Int(30)),
		relation.NewTuple(value.Bool(true), value.Int(40)),
		relation.NewTuple(value.Time(5), value.Int(50)),
	}
	if err := writeRows(w, seqsOf(len(tuples), 1), tuples); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	for i, want := range tuples {
		_, got, ok, err := rr.next(2)
		if err != nil || !ok || !got.Equal(want) {
			t.Fatalf("tuple %d: ok=%v err=%v got %s want %s", i, ok, err, got, want)
		}
		if got[0].Kind() != want[0].Kind() {
			t.Fatalf("tuple %d: kind %v, want %v", i, got[0].Kind(), want[0].Kind())
		}
	}
}

// TestColumnarSmallerThanRowCodec pins the point of the block layout: for a
// homogeneous relation the kind tag is paid once per column per block, so
// the encoded file undercuts a row codec's one-tag-per-cell floor.
func TestColumnarSmallerThanRowCodec(t *testing.T) {
	m := NewManager(t.TempDir())
	defer m.Cleanup()
	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	const n = 2048
	rows := make([]relation.Tuple, n)
	for i := range rows {
		rows[i] = relation.NewTuple(value.Int(1), value.Int(2), value.Int(3), value.Int(4))
	}
	if err := writeRows(w, seqsOf(n, 1), rows); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Row codec floor: 4 kind bytes + 4 one-byte varints per tuple, before
	// any framing. The columnar file must beat even that.
	if f.Bytes() >= int64(n*8) {
		t.Fatalf("columnar file is %d bytes for %d tuples; per-cell kind tags would start at %d", f.Bytes(), n, n*8)
	}
}

// goldenBlock is one block as the block encoder wrote it before the wire
// became its third carrier — five rows of homogeneous int, float, string,
// bool and time columns plus a column whose cells mix every kind — with
// sequence keys 0, 7, 300, 2^40 and 5. Segment files on disk hold exactly
// such blocks, so this fixture is the guarantee that they still open.
const goldenBlock = "a70105060007ac02808080808020050100feffffffffffffffff01ffffffffffffffffff0101d804020000000000000080000000000000f0ff0000000000000a409c7500883ce4377e182d4454fb210940030011c3bc6ec3af636f646520e2809420e7958c0b68656c6c6f00776f726c64046974277304416e6e610400010001000500feffffffffffffff3f0954808080808040ff0102030374776f020000000000000c400401050ab098e16f"

// TestBlockGoldenBytes decodes the golden block onto column planes and
// re-encodes it from them byte for byte: the block format is frozen.
func TestBlockGoldenBytes(t *testing.T) {
	raw, err := hex.DecodeString(goldenBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []relation.Tuple{
		relation.NewTuple(value.Int(0), value.Float(math.Copysign(0, -1)), value.String_(""), value.Bool(false), value.Time(0), value.Int(1)),
		relation.NewTuple(value.Int(math.MaxInt64), value.Float(math.Inf(-1)), value.String_("ünïcode — 界"), value.Bool(true), value.Time(period.NowMarker), value.String_("two")),
		relation.NewTuple(value.Int(math.MinInt64), value.Float(3.25), value.String_("hello\x00world"), value.Bool(false), value.Time(-5), value.Float(3.5)),
		relation.NewTuple(value.Int(-1), value.Float(1e300), value.String_("it's"), value.Bool(true), value.Time(42), value.Bool(true)),
		relation.NewTuple(value.Int(300), value.Float(math.Pi), value.String_("Anna"), value.Bool(false), value.Time(1<<40), value.Time(5)),
	}
	wantKeys := []int{0, 7, 300, 1 << 40, 5}
	sch := schema.MustNew(
		schema.Attr("I", value.KindInt), schema.Attr("F", value.KindFloat), schema.Attr("S", value.KindString),
		schema.Attr("B", value.KindBool), schema.Attr("T", value.KindTime), schema.Attr("H", value.KindInt),
	)
	// The heterogeneous column fits no schema, so decode through the
	// unchecked path first — its plane demotes to boxed cells — then check
	// the rest against a schema.
	b := column.NewBatch(sch, 0)
	seqs, _, err := decodeBlock(bytes.NewReader(raw), nil, nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != len(want) {
		t.Fatalf("decoded %d rows, want %d", b.N, len(want))
	}
	rows := make([]relation.Tuple, b.N)
	for i := range rows {
		rows[i] = make(relation.Tuple, len(b.Cols))
		b.FillRow(rows[i], i)
	}
	for j, col := range b.Cols[:5] {
		if col.Kind != sch.At(j).Kind {
			t.Fatalf("column %d decoded onto a %v plane, want %v", j, col.Kind, sch.At(j).Kind)
		}
	}
	for i := range want {
		if seqs[i] != wantKeys[i] || !rows[i].Equal(want[i]) {
			t.Fatalf("row %d: key %d %s, want key %d %s", i, seqs[i], rows[i], wantKeys[i], want[i])
		}
		for j := range want[i] {
			if rows[i][j].Kind() != want[i][j].Kind() {
				t.Fatalf("row %d col %d: kind %v, want %v", i, j, rows[i][j].Kind(), want[i][j].Kind())
			}
		}
	}
	if bits := math.Float64bits(rows[0][1].AsFloat()); bits != math.Float64bits(math.Copysign(0, -1)) {
		t.Fatalf("negative zero decoded to bits %x", bits)
	}
	if again := EncodeBlock(nil, seqs, b, 0); !bytes.Equal(again, raw) {
		t.Fatalf("re-encoded block differs:\n got %x\nwant %x", again, raw)
	}
	// Through the schema-checked decoder, the heterogeneous column is the
	// one thing refused.
	if _, err := DecodeBlocks(bytes.NewReader(raw), column.NewBatch(sch, 0), nil); err == nil {
		t.Fatal("a string cell in an int column must not pass the schema check")
	}
}

// TestDecodeBlocksStopsCleanly pins the sequence decoder's edges: an empty
// reader holds no blocks, two blocks decode in order with their keys, and
// a reader that runs dry inside a block — at any byte — is an error, never
// the clean end.
func TestDecodeBlocksStopsCleanly(t *testing.T) {
	sch := schema.MustNew(schema.Attr("N", value.KindInt), schema.Attr("S", value.KindString))
	a := []relation.Tuple{relation.NewTuple(value.Int(1), value.String_("a")), relation.NewTuple(value.Int(2), value.String_("b"))}
	b := []relation.Tuple{relation.NewTuple(value.Int(3), value.String_("c"))}
	stream := EncodeBlock(EncodeBlock(nil, []int{4, 5}, batchOf(2, a), 0), []int{6}, batchOf(2, b), 0)
	decode := func(data []byte, keys []int) ([]relation.Tuple, []int, error) {
		got := column.NewBatch(sch, 0)
		keys, err := DecodeBlocks(bytes.NewReader(data), got, keys)
		rows := make([]relation.Tuple, got.N)
		for i := range rows {
			rows[i] = make(relation.Tuple, len(got.Cols))
			got.FillRow(rows[i], i)
		}
		return rows, keys, err
	}

	rows, keys, err := decode(nil, []int{})
	if err != nil || len(rows) != 0 || len(keys) != 0 {
		t.Fatalf("empty reader: %d rows, %d keys, err %v", len(rows), len(keys), err)
	}
	rows, keys, err = decode(stream, []int{})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]relation.Tuple(nil), a...), b...)
	if len(rows) != len(all) || keys[0] != 4 || keys[1] != 5 || keys[2] != 6 {
		t.Fatalf("two blocks: %d rows, keys %v", len(rows), keys)
	}
	for i := range all {
		if !rows[i].Equal(all[i]) {
			t.Fatalf("row %d: %s, want %s", i, rows[i], all[i])
		}
	}
	if _, keys, _ := decode(stream, nil); keys != nil {
		t.Fatalf("nil keys collected %v", keys)
	}
	first := len(EncodeBlock(nil, []int{4, 5}, batchOf(2, a), 0))
	for cut := 1; cut < len(stream); cut++ {
		if cut == first {
			continue // a whole first block, then a clean end
		}
		if _, _, err := decode(stream[:cut], nil); err == nil {
			t.Fatalf("stream cut at byte %d of %d decoded without error", cut, len(stream))
		}
	}
}

// TestManagerLifecycle: no pass file until the first write, gone after
// Cleanup, and Remove releases individual passes early.
func TestManagerLifecycle(t *testing.T) {
	parent := t.TempDir()
	m := NewManager(parent)
	if names := dirNames(t, parent); len(names) != 0 {
		t.Fatalf("manager created %v before anything spilled", names)
	}
	if err := m.Cleanup(); err != nil {
		t.Fatalf("cleanup of an untouched manager: %v", err)
	}

	w, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Write([]int{0}, batchOf(4, sampleTuples()[:1])); err != nil {
		t.Fatal(err)
	}
	f, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, parent); len(names) != 1 {
		t.Fatalf("want one pass file after a write, have %v", names)
	}
	if err := f.Remove(); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, parent); len(names) != 0 {
		t.Fatalf("Remove of a pass's only bucket left %v", names)
	}

	w2, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	w2.Abort() // aborted writers must leave nothing behind

	// A pass still held at the end of the run is Cleanup's to remove.
	w3, err := m.Create()
	if err != nil {
		t.Fatal(err)
	}
	if err := w3.Write([]int{0}, batchOf(4, sampleTuples()[:1])); err != nil {
		t.Fatal(err)
	}
	held, err := w3.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Cleanup(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(held.fh.Name()); !os.IsNotExist(err) {
		t.Fatalf("pass file %s survived Cleanup (stat err %v)", held.fh.Name(), err)
	}
	if names := dirNames(t, parent); len(names) != 0 {
		t.Fatalf("parent directory not empty after Cleanup: %v", names)
	}
	if m.FilesCreated() != 2 {
		t.Fatalf("FilesCreated = %d, want 2 (the aborted pass never wrote)", m.FilesCreated())
	}
}

// dirNames lists the entries of dir.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestPassCorruptionStaysInItsBucket interleaves two buckets' blocks in one
// pass file, flips a byte inside one of bucket 1's blocks, and expects
// bucket 1's read to fail while bucket 0 — reading only its own extents of
// the same file — still decodes intact.
func TestPassCorruptionStaysInItsBucket(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir)
	defer m.Cleanup()
	p := m.NewPass()
	w0, w1 := p.Writer(), p.Writer()
	rows := sampleTuples()[:4]
	for k := range rows {
		if err := writeRows(w0, []int{10 * k}, rows[k:k+1]); err != nil {
			t.Fatal(err)
		}
		if err := writeRows(w1, []int{10*k + 1}, rows[k:k+1]); err != nil {
			t.Fatal(err)
		}
	}
	f0, err := w0.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f1, err := w1.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("two buckets of one pass should share one file, have %v", names)
	}
	if f0.fh != f1.fh || len(f0.ext) != 4 || len(f1.ext) != 4 || f1.ext[0].off < f0.ext[0].off || f0.ext[1].off < f1.ext[0].off {
		t.Fatalf("buckets do not interleave in one file: %v / %v", f0.ext, f1.ext)
	}
	path := f1.fh.Name()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	e := f1.ext[1]
	data[e.off+int64(e.n)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := readAll(f1); err == nil {
		t.Fatal("bit flip in bucket 1 went undetected")
	}
	r, err := f0.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rr := &rowReader{r: r}
	for k, want := range rows {
		seq, got, ok, err := rr.next(len(want))
		if err != nil || !ok {
			t.Fatalf("bucket 0 record %d: ok=%v err=%v", k, ok, err)
		}
		if seq != 10*k || !got.Equal(want) {
			t.Fatalf("bucket 0 record %d: seq %d %s, want %d %s", k, seq, got, 10*k, want)
		}
	}
	if _, _, ok, err := rr.next(4); ok || err != nil {
		t.Fatalf("bucket 0: expected a clean end, got ok=%v err=%v", ok, err)
	}
}

// TestTupleMemSize: the accounting estimate of a row — priced as the tuple
// it would be — must be positive and grow with string content, on typed
// and boxed planes alike.
func TestTupleMemSize(t *testing.T) {
	small := relation.NewTuple(value.Int(1))
	big := relation.NewTuple(value.String_(string(make([]byte, 1024))))
	boxed := batchOf(1, []relation.Tuple{small, big})
	typed := column.NewBatch(schema.MustNew(schema.Attr("S", value.KindString)), 1)
	typed.Cols[0].Append(big[0])
	typed.N = 1
	if boxed.MemSize(0) <= 0 {
		t.Fatal("non-positive size for a 1-value row")
	}
	if boxed.MemSize(1) < 1024 || typed.MemSize(0) != boxed.MemSize(1) {
		t.Fatalf("string content not accounted: boxed %d, typed %d", boxed.MemSize(1), typed.MemSize(0))
	}
}
