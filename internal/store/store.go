// Package store implements the persistent half of the catalog: an
// append-friendly, disk-backed temporal store. A store directory holds
//
//	MANIFEST        — checksummed root: schemas, flags, segment lists
//	seg-NNNNNN.seg  — immutable segment files of columnar blocks
//
// Segments reuse the spill block codec (kind-tagged column planes, CRC-32C
// per block), so spill partitions and segments share one codec and one
// corruption story: a truncated or bit-flipped segment is detected at read
// time with a typed error, never a panic or a silent wrong answer. A
// relation's segments decode onto one column.Batch, and Load hands it over
// as the relation's list: no tuple is built on the way in.
//
// Every segment carries min/max chronon fences over its tuples' periods in
// the manifest — the per-segment interval index. A point-in-time or period
// scan consults the fences and skips segments that cannot overlap the
// requested period, which is what makes time-travel queries on a grown
// relation cheaper than full scans (the catalog surfaces the skip counts so
// the pruning is observable, and the cost model prices it).
//
// Commits are atomic: segment files are written and fsynced first, then the
// new manifest is written to MANIFEST.tmp, fsynced, and renamed over
// MANIFEST (the single commit point), then the directory is fsynced. A
// writer killed anywhere in that sequence leaves the previous manifest
// intact; Open rolls back by discarding the tmp file and sweeping segment
// files the committed manifest does not reference.
package store

import (
	"bufio"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tqp/internal/algebra"
	"tqp/internal/column"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
)

// ErrCorrupt marks data that was committed as durable but no longer
// verifies: a manifest or segment that is truncated, bit-flipped, or
// missing. Callers test with errors.Is. Torn *uncommitted* state (a crash
// mid-commit) is not corruption — Open rolls it back silently.
var ErrCorrupt = errors.New("store: corrupt")

// castagnoli is the CRC-32C table (the spill codec's polynomial; the
// manifest header uses the same one).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store is one open store directory. A Store is a single-writer handle:
// concurrent readers of already-loaded relations are fine (segments and
// manifests are immutable once committed), but mutating calls (Create,
// Append, Compact) must not race each other or Load.
type Store struct {
	dir string
	man *manifest

	// fault, when set (tests only), is called at named points inside the
	// commit sequence; a non-nil return abandons the commit exactly there,
	// simulating a writer killed mid-commit. The points are "segment"
	// (segment bytes buffered, nothing synced), "manifest" (tmp manifest
	// written, not renamed) — after the rename the commit is durable.
	fault func(point string) error

	// met holds the cumulative observability counters (see metrics.go).
	met meters
}

// Open opens the store at dir, creating the directory and an empty
// committed manifest if none exists. It verifies the manifest checksum,
// discards an in-flight MANIFEST.tmp from an interrupted commit, sweeps
// unreferenced segment files, and stats every referenced segment — a
// referenced segment that is missing or has the wrong size is ErrCorrupt.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir}
	man, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		s.man = man
	case os.IsNotExist(err):
		// Fresh store (or a writer died before the very first commit —
		// nothing was ever durable, so a fresh start is the rollback).
		s.man = &manifest{Magic: manifestMagic, Version: 0}
		if err := s.commitManifest(s.man); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover rolls back interrupted commits and verifies the committed state:
// the tmp manifest is discarded, segment files the manifest does not
// reference are removed, and every referenced segment must exist with its
// committed size.
func (s *Store) recover() error {
	if err := os.Remove(filepath.Join(s.dir, manifestTmpName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: removing stale %s: %w", manifestTmpName, err)
	}
	referenced := make(map[string]SegmentInfo)
	for _, r := range s.man.Relations {
		for _, sg := range r.Segments {
			referenced[sg.File] = sg
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: reading %s: %w", s.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		if _, ok := referenced[name]; ok {
			continue
		}
		// An orphan from a commit that never reached its rename; roll back.
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
			return fmt.Errorf("store: sweeping orphan segment %s: %w", name, err)
		}
	}
	for name, sg := range referenced {
		fi, err := os.Stat(filepath.Join(s.dir, name))
		if err != nil {
			return fmt.Errorf("store: committed segment %s: %v: %w", name, err, ErrCorrupt)
		}
		if fi.Size() != sg.Bytes {
			return fmt.Errorf("store: committed segment %s is %d bytes, manifest says %d: %w",
				name, fi.Size(), sg.Bytes, ErrCorrupt)
		}
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Version returns the committed manifest version; it bumps on every commit
// (Create, Append, Compact), so it is the catalog's change token for plan
// caching.
func (s *Store) Version() uint64 { return s.man.Version }

// Relations returns the stored relation names, sorted.
func (s *Store) Relations() []string {
	out := make([]string, 0, len(s.man.Relations))
	for _, r := range s.man.Relations {
		out = append(out, r.Name)
	}
	sort.Strings(out)
	return out
}

// Schema returns the named relation's schema.
func (s *Store) Schema(name string) (*schema.Schema, error) {
	r := s.man.rel(name)
	if r == nil {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	return r.schemaOf()
}

// Info returns the named relation's declared base info.
func (s *Store) Info(name string) (algebra.BaseInfo, error) {
	r := s.man.rel(name)
	if r == nil {
		return algebra.BaseInfo{}, fmt.Errorf("store: unknown relation %q", name)
	}
	return r.infoOf(), nil
}

// Segments returns the named relation's committed segment list in append
// order (the concatenation order of its tuples).
func (s *Store) Segments(name string) ([]SegmentInfo, error) {
	r := s.man.rel(name)
	if r == nil {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	return append([]SegmentInfo(nil), r.Segments...), nil
}

// Create commits a new empty relation with the given schema and declared
// info. The info flags are the caller's contract (the catalog verifies them
// against the instance on every append).
func (s *Store) Create(name string, sch *schema.Schema, info algebra.BaseInfo) error {
	if s.man.rel(name) != nil {
		return fmt.Errorf("store: relation %q already exists", name)
	}
	next := s.man.clone()
	next.Relations = append(next.Relations, newManifestRel(name, sch, info))
	sort.Slice(next.Relations, func(i, j int) bool { return next.Relations[i].Name < next.Relations[j].Name })
	return s.commit(next)
}

// Append commits one new segment holding b's presented rows at the end of
// the named relation. The batch is checked against the stored schema,
// column by column and, where a plane is boxed, row by row, before anything
// touches disk. An empty batch is a no-op.
func (s *Store) Append(name string, b *column.Batch) error {
	mr := s.man.rel(name)
	if mr == nil {
		return fmt.Errorf("store: unknown relation %q", name)
	}
	if b.Rows() == 0 {
		return nil
	}
	sch, err := mr.schemaOf()
	if err != nil {
		return err
	}
	if err := checkBatch(sch, b); err != nil {
		return fmt.Errorf("store: appending to %q, %w", name, err)
	}
	view := *b
	view.Schema = sch // the fences follow the stored schema's time attributes
	next := s.man.clone()
	seg, err := s.writeSegment(next, &view)
	if err != nil {
		return err
	}
	next.rel(name).Segments = append(next.rel(name).Segments, seg)
	return s.commit(next)
}

// checkBatch reports the first cell of b whose domain is not sch's: a typed
// plane of the attribute's kind holds only such cells, any other plane is
// checked cell by cell.
func checkBatch(sch *schema.Schema, b *column.Batch) error {
	if len(b.Cols) != sch.Len() {
		return fmt.Errorf("batch arity %d does not match schema %s", len(b.Cols), sch)
	}
	for c := range b.Cols {
		col, want := &b.Cols[c], sch.At(c).Kind
		if col.Kind == want {
			continue
		}
		for k := 0; k < b.Rows(); k++ {
			if got := col.At(b.RowIndex(k)).Kind(); got != want {
				return fmt.Errorf("row %d: attribute %s expects %s, batch holds %s", k, sch.At(c).Name, want, got)
			}
		}
	}
	return nil
}

// Compact rewrites the named relation's segments as a single segment with
// the same tuple list, reclaiming per-segment overheads and restoring one
// tight period fence. The old segment files are removed only after the new
// manifest commits; a crash in between leaves them as orphans for the next
// Open to sweep.
func (s *Store) Compact(name string) error {
	mr := s.man.rel(name)
	if mr == nil {
		return fmt.Errorf("store: unknown relation %q", name)
	}
	if len(mr.Segments) <= 1 {
		return nil
	}
	r, err := s.Load(name)
	if err != nil {
		return err
	}
	b := r.Columns()
	old := append([]SegmentInfo(nil), mr.Segments...)
	next := s.man.clone()
	seg, err := s.writeSegment(next, b)
	if err != nil {
		return err
	}
	next.rel(name).Segments = []SegmentInfo{seg}
	if err := s.commit(next); err != nil {
		return err
	}
	for _, sg := range old {
		os.Remove(filepath.Join(s.dir, sg.File)) // best effort; Open sweeps leftovers
	}
	s.met.compactions.Add(1)
	return nil
}

// Load reads the named relation's full list by decoding its segments in
// order onto one batch, verifying every block checksum on the way: the
// result is a relation over that batch, so no tuple is built until a reader
// asks for one. The returned relation carries the declared order. Decode failures on
// committed segments wrap ErrCorrupt.
func (s *Store) Load(name string) (*relation.Relation, error) {
	mr := s.man.rel(name)
	if mr == nil {
		return nil, fmt.Errorf("store: unknown relation %q", name)
	}
	sch, err := mr.schemaOf()
	if err != nil {
		return nil, err
	}
	total := 0
	for _, sg := range mr.Segments {
		total += sg.Rows
	}
	b := column.NewBatch(sch, total)
	for _, sg := range mr.Segments {
		if err := s.readSegment(sg, b); err != nil {
			return nil, err
		}
	}
	r := relation.FromColumnar(sch, b)
	r.SetOrder(mr.infoOf().Order)
	return r, nil
}

// readSegment appends one segment's rows to b, verifying block checksums,
// cell kinds against b's schema, and the committed row count.
func (s *Store) readSegment(sg SegmentInfo, b *column.Batch) error {
	f, err := os.Open(filepath.Join(s.dir, sg.File))
	if err != nil {
		return fmt.Errorf("store: segment %s: %v: %w", sg.File, err, ErrCorrupt)
	}
	defer f.Close()
	from := b.N
	if _, err := spill.DecodeBlocks(bufio.NewReaderSize(f, 1<<16), b, nil); err != nil {
		return fmt.Errorf("store: segment %s: %v: %w", sg.File, err, ErrCorrupt)
	}
	if got := b.N - from; got != sg.Rows {
		return fmt.Errorf("store: segment %s holds %d rows, %d committed: %w", sg.File, got, sg.Rows, ErrCorrupt)
	}
	s.met.segmentsRead.Add(1)
	s.met.bytesRead.Add(sg.Bytes)
	return nil
}

// writeSegment writes b's rows as one new segment file, block by block
// straight off its planes, fsyncs it, and returns its descriptor
// (allocating the segment number from next). The file is durable before
// the caller commits the manifest that references it.
func (s *Store) writeSegment(next *manifest, b *column.Batch) (SegmentInfo, error) {
	name := fmt.Sprintf("seg-%06d.seg", next.NextSeg)
	next.NextSeg++
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return SegmentInfo{}, fmt.Errorf("store: creating segment %s: %w", name, err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var buf []byte
	n := b.Rows()
	seqs := make([]int, 0, spill.BlockRows)
	var bytes int64
	for lo := 0; lo < n; lo += spill.BlockRows {
		hi := min(lo+spill.BlockRows, n)
		seqs = seqs[:0]
		for i := lo; i < hi; i++ {
			seqs = append(seqs, i)
		}
		buf = spill.EncodeBlock(buf[:0], seqs, b, lo)
		if _, err := bw.Write(buf); err != nil {
			f.Close()
			return SegmentInfo{}, fmt.Errorf("store: writing segment %s: %w", name, err)
		}
		bytes += int64(len(buf))
	}
	if s.fault != nil {
		if err := s.fault("segment"); err != nil {
			f.Close()
			return SegmentInfo{}, err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return SegmentInfo{}, fmt.Errorf("store: flushing segment %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return SegmentInfo{}, fmt.Errorf("store: syncing segment %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return SegmentInfo{}, fmt.Errorf("store: closing segment %s: %w", name, err)
	}
	s.met.segmentsWritten.Add(1)
	s.met.bytesWritten.Add(bytes)
	seg := SegmentInfo{File: name, Rows: n, Bytes: bytes}
	if b.Schema.Temporal() {
		seg.Fenced = true
		t1, t2 := b.Schema.TimeIndices()
		first := true
		for k := 0; k < n; k++ {
			p := b.PeriodAt(t1, t2, b.RowIndex(k))
			if p.Empty() {
				continue
			}
			if first || int64(p.Start) < seg.MinT {
				seg.MinT = int64(p.Start)
			}
			if first || int64(p.End) > seg.MaxT {
				seg.MaxT = int64(p.End)
			}
			first = false
		}
		// No non-empty periods: leave MinT == MaxT == 0, an empty fence
		// that never overlaps — such tuples match no period scan anyway.
	}
	return seg, nil
}

// commit bumps the version and installs next as the committed manifest via
// the atomic rename protocol. On any failure the in-memory state stays at
// the previous manifest; whatever partial files exist are the crash debris
// the next Open rolls back.
func (s *Store) commit(next *manifest) error {
	next.Version++
	if err := s.commitManifest(next); err != nil {
		return err
	}
	s.man = next
	s.met.commits.Add(1)
	return nil
}

// commitManifest writes m to MANIFEST.tmp, fsyncs, renames it over
// MANIFEST, and fsyncs the directory — the write-ahead half of every
// commit. The rename is the commit point.
func (s *Store) commitManifest(m *manifest) error {
	data, err := encodeManifest(m)
	if err != nil {
		return err
	}
	tmp := filepath.Join(s.dir, manifestTmpName)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", manifestTmpName, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", manifestTmpName, err)
	}
	if s.fault != nil {
		if err := s.fault("manifest"); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", manifestTmpName, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: closing %s: %w", manifestTmpName, err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestName)); err != nil {
		return fmt.Errorf("store: committing manifest: %w", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
