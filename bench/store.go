package main

import (
	"fmt"
	"os"
	"time"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/exec"
	"tqp/internal/relation"
	"tqp/internal/store"
)

// The two workloads over the disk catalog.

func travelSQL(era int) string {
	return fmt.Sprintf("VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE "+
		"FOR PERIOD (%d, %d) ORDER BY EmpName ASC", era*eraSpan, (era+1)*eraSpan)
}

func readSQL(era int) string {
	return fmt.Sprintf("SELECT * FROM EMPLOYEE FOR PERIOD (%d, %d)", era*eraSpan, (era+1)*eraSpan)
}

// buildStore creates a disk catalog in dir holding EMPLOYEE as one
// segment per era, and returns the generated rows era by era.
func buildStore(e *env, dir string) (*catalog.Catalog, [][]empRow, error) {
	cat, err := catalog.OpenDir(dir)
	if err != nil {
		return nil, nil, err
	}
	eras := make([][]empRow, e.sz.eras)
	for era := range eras {
		eras[era] = eraRows(e.seed, era, e.sz.eraRows)
		if era == 0 {
			first := relation.MustFromRows(catalog.EmployeeSchema(), literals(eras[0]))
			err = cat.AddDisk("EMPLOYEE", first, algebra.BaseInfo{})
		} else {
			err = cat.AppendRows("EMPLOYEE", literals(eras[era]))
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return cat, eras, nil
}

func flatten(eras [][]empRow) []empRow {
	var all []empRow
	for _, rows := range eras {
		all = append(all, rows...)
	}
	return all
}

// storeMeter records, per operation, how far the store's counters moved.
type storeMeter struct {
	cat  *catalog.Catalog
	seen store.Meters
}

func (s *storeMeter) attach(cat *catalog.Catalog) {
	s.cat, s.seen = cat, cat.Store().Meters()
}

func (s *storeMeter) record(rec *recorder) {
	m := s.cat.Store().Meters()
	rec.count("store_segments_written", float64(m.SegmentsWritten-s.seen.SegmentsWritten))
	rec.count("store_segments_read", float64(m.SegmentsRead-s.seen.SegmentsRead))
	rec.count("store_bytes_written", float64(m.BytesWritten-s.seen.BytesWritten))
	rec.count("store_bytes_read", float64(m.BytesRead-s.seen.BytesRead))
	rec.count("store_commits", float64(m.Commits-s.seen.Commits))
	s.seen = m
}

// storeLayers measures what the finished store costs to open and to keep:
// a cold open (manifest plus every segment decoded) and disk bytes per
// byte of user data.
func storeLayers(dir func() string, rows []empRow) func(*pass, map[string]float64) error {
	return func(p *pass, m map[string]float64) error {
		var opens []float64
		for k := 0; k < 5; k++ {
			start := time.Now()
			cold, err := catalog.OpenDir(dir())
			if err != nil {
				return err
			}
			if _, err := cold.Resolve("EMPLOYEE"); err != nil {
				return err
			}
			opens = append(opens, float64(time.Since(start))/1e6)
		}
		m["open_ms"] = median(opens)
		disk, err := dirBytes(dir())
		if err != nil {
			return err
		}
		m["disk_bytes_per_user_byte"] = float64(disk) / float64(userBytes(rows))
		scanned, skipped := median(p.rec.counts["segments_scanned"]), median(p.rec.counts["segments_skipped"])
		if scanned+skipped > 0 {
			m["prune_share"] = skipped / (scanned + skipped)
		}
		m["travel_read_ms"] = m["execute_ms"]
		return nil
	}
}

func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range entries {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

// store.travel: one library caller reads one era of a 16-segment disk
// catalog with a prepared FOR PERIOD statement; the fences prune the rest.
func setupStoreTravel(e *env) (*instance, error) {
	dir, err := e.dir("store")
	if err != nil {
		return nil, err
	}
	cat, eras, err := buildStore(e, dir)
	if err != nil {
		return nil, err
	}
	all := flatten(eras)
	spec := exec.NewSpec(exec.Config{})
	opt := newOptimizer(cat, spec)
	plans := make([]algebra.Node, len(eras))
	wants := make([]*relation.Relation, len(eras))
	for era := range eras {
		prep, err := opt.Prepare(travelSQL(era))
		if err != nil {
			return nil, err
		}
		plans[era] = prep.Plan
		if wants[era], err = oracle(opt, prep.Plan); err != nil {
			return nil, err
		}
		if err := checkFiltered(travelSQL(era), wants[era].Len(), len(all)); err != nil {
			return nil, err
		}
		expected := coalescedCount(overlapping(all, era*eraSpan, (era+1)*eraSpan))
		if wants[era].Len() != expected {
			return nil, fmt.Errorf("era %d: the oracle returns %d rows, the generated rows coalesce to %d",
				era, wants[era].Len(), expected)
		}
	}
	var meter storeMeter
	meter.attach(cat)
	in := &instance{clients: 1}
	in.op = func(_, i int, rec *recorder) (time.Duration, error) {
		era := int((uint64(e.seed) + uint64(i)) % uint64(len(eras)))
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "execute")
		start := time.Now()
		got, tr, err := opt.ExecutePlan(plans[era], spec)
		lat := time.Since(start)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if !wants[era].EqualAsList(got) {
			return 0, fmt.Errorf("era %d: result differs from the oracle's list", era)
		}
		if tr.SegmentsScanned != 1 || tr.SegmentsSkipped != len(eras)-1 {
			return 0, fmt.Errorf("era %d: scanned %d and skipped %d segments, want 1 and %d",
				era, tr.SegmentsScanned, tr.SegmentsSkipped, len(eras)-1)
		}
		countTrace(rec, tr)
		if rec != nil {
			meter.record(rec)
		}
		return lat, nil
	}
	in.layers = storeLayers(func() string { return dir }, all)
	return in, nil
}

// store.ingest: one library caller appends a batch in a fresh era to a
// disk catalog (segment encode, fsync, manifest commit: the store syncs
// every append) and reads that era back with a new FOR PERIOD statement.
// Each round starts again from a copy of the same 16-segment store.
func setupStoreIngest(e *env) (*instance, error) {
	base, err := e.dir("base")
	if err != nil {
		return nil, err
	}
	_, eras, err := buildStore(e, base)
	if err != nil {
		return nil, err
	}
	round := e.sz.ingestRound
	batches := make([][][]any, round)
	sqls := make([]string, round)
	for j := range batches {
		rows := eraRows(e.seed, e.sz.eras+j, e.sz.eraRows)
		eras = append(eras, rows)
		batches[j] = literals(rows)
		sqls[j] = readSQL(e.sz.eras + j)
	}
	all := flatten(eras)
	spec := exec.NewSpec(exec.Config{})

	// The oracle reads each era from an in-memory catalog holding the rows
	// of a finished round; a FOR PERIOD over one era sees only that era.
	mem := catalog.New()
	full := relation.MustFromRows(catalog.EmployeeSchema(), literals(all))
	if err := mem.Add("EMPLOYEE", full, algebra.BaseInfo{}); err != nil {
		return nil, err
	}
	memOpt := newOptimizer(mem, spec)
	wants := make([]*relation.Relation, round)
	for j := range wants {
		prep, err := memOpt.Prepare(sqls[j])
		if err != nil {
			return nil, err
		}
		if wants[j], err = oracle(memOpt, prep.Plan); err != nil {
			return nil, err
		}
		if err := checkFiltered(sqls[j], wants[j].Len(), len(all)); err != nil {
			return nil, err
		}
		era := e.sz.eras + j
		batch := overlapping(all, era*eraSpan, (era+1)*eraSpan)
		if len(batch) != e.sz.eraRows || !sameMultiset(relationKeys(wants[j]), rowKeys(batch)) {
			return nil, fmt.Errorf("era %d: the oracle's read does not hold exactly the batch", era)
		}
	}

	var (
		dir   string
		cat   *catalog.Catalog
		opt   *core.Optimizer
		meter storeMeter
	)
	in := &instance{clients: 1, roundOps: round}
	in.reset = func() error {
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		if dir, err = e.dir("round"); err != nil {
			return err
		}
		if err := os.CopyFS(dir, os.DirFS(base)); err != nil {
			return err
		}
		if cat, err = catalog.OpenDir(dir); err != nil {
			return err
		}
		opt = newOptimizer(cat, spec)
		meter.attach(cat)
		return nil
	}
	in.op = func(_, i int, rec *recorder) (time.Duration, error) {
		j := i % round
		root := rec.begin(i, 0, "op")
		defer func() { rec.end(root) }()
		id := rec.begin(i, root, "append")
		start := time.Now()
		err := cat.AppendRows("EMPLOYEE", batches[j])
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin(i, root, "prepare")
		prep, err := opt.Prepare(sqls[j])
		rec.end(id)
		if err != nil {
			return 0, err
		}
		id = rec.begin(i, root, "execute")
		got, tr, err := opt.ExecutePlan(prep.Plan, spec)
		lat := time.Since(start)
		rec.end(id)
		if err != nil {
			return 0, err
		}
		if !wants[j].EqualAsList(got) {
			return 0, fmt.Errorf("era %d: the read after the append differs from the oracle's list", e.sz.eras+j)
		}
		if tr.SegmentsScanned != 1 || tr.SegmentsSkipped != e.sz.eras+j {
			return 0, fmt.Errorf("era %d: scanned %d and skipped %d segments, want 1 and %d",
				e.sz.eras+j, tr.SegmentsScanned, tr.SegmentsSkipped, e.sz.eras+j)
		}
		countTrace(rec, tr)
		if rec == nil {
			return lat, nil
		}
		meter.record(rec)
		return lat, probePlanning(rec, i, root, opt, sqls[j])
	}
	// A pass ends on a finished round, so the store holds every batch.
	in.layers = storeLayers(func() string { return dir }, all)
	return in, nil
}
