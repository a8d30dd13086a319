package catalog_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"tqp/internal/catalog"
	"tqp/internal/datagen"
	"tqp/internal/period"
	"tqp/internal/testutil"
)

// storeFuzzScale multiplies the differential suite's seed count; the
// nightly store-fuzz workflow sets TQP_STORE_FUZZ_SCALE=10 for a 10×
// deeper sweep.
func storeFuzzScale() int64 {
	if v := os.Getenv("TQP_STORE_FUZZ_SCALE"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return 1
}

// recordStoreFuzzFailure appends a reproduction line to the file named by
// TQP_FUZZ_FAILURE_FILE (the nightly workflow uploads it as an artifact on
// failure), then fails the test.
func recordStoreFuzzFailure(t *testing.T, format string, args ...any) {
	t.Helper()
	msg := fmt.Sprintf(format, args...)
	if path := os.Getenv("TQP_FUZZ_FAILURE_FILE"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintln(f, msg)
			f.Close()
		}
	}
	t.Fatal(msg)
}

// travelQuery is one randomly drawn scan of the differential suite.
type travelQuery struct {
	name string
	scan string // encoded scan name; equals name for a full scan
}

// TestStoreDifferentialFuzz is the persistence layer's correctness anchor:
// a disk-backed catalog seeded from a random in-memory temporal catalog,
// grown by the same random appends, must resolve every full and travel
// scan bit-identically to the in-memory original — before and after a
// compaction, and again after closing and reopening the directory (the
// restart leg). Append rejections must also agree: an info violation the
// in-memory catalog refuses must be refused by the disk catalog too, or
// the two diverge silently. On every leg, the in-memory one included, each
// entry's Stats, extended append by append, must equal exactly the Stats a
// fresh catalog computes over the same tuples.
func TestStoreDifferentialFuzz(t *testing.T) {
	seeds := 6 * storeFuzzScale()
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			mem, _ := testutil.TemporalCatalogSized(seed, 20+rng.Intn(40), 15+rng.Intn(30))
			dir := t.TempDir()
			disk, err := catalog.OpenDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := disk.ImportFrom(mem); err != nil {
				t.Fatal(err)
			}

			// Random append rounds, mirrored to both catalogs. Drawn rows
			// may violate the relations' base info (duplicates into a
			// distinct relation); both sides must agree on acceptance.
			names := []string{"A", "B"}
			for round := 0; round < 4; round++ {
				extra := datagen.Temporal(datagen.TemporalSpec{
					Rows:    1 + rng.Intn(8),
					Values:  3 + rng.Intn(6),
					DupFrac: 0.25,
					AdjFrac: 0.25,
					Seed:    seed*1000 + int64(round),
				})
				name := names[rng.Intn(len(names))]
				memErr := mem.AppendTuples(name, extra.Tuples())
				diskErr := disk.AppendTuples(name, extra.Tuples())
				if (memErr == nil) != (diskErr == nil) {
					recordStoreFuzzFailure(t,
						"seed=%d round=%d rel=%s: append outcomes diverge: mem=%v disk=%v",
						seed, round, name, memErr, diskErr)
				}
			}

			// Draw the query set once so every leg answers the same scans.
			var queries []travelQuery
			for _, name := range names {
				queries = append(queries, travelQuery{name: name, scan: name})
			}
			for i := 0; i < 16; i++ {
				name := names[rng.Intn(len(names))]
				var tr catalog.Travel
				if rng.Intn(2) == 0 {
					tr = catalog.Travel{Kind: catalog.TravelAsOf, T: period.Chronon(rng.Intn(60) - 10)}
				} else {
					a := rng.Intn(60) - 10
					tr = catalog.Travel{
						Kind:  catalog.TravelPeriod,
						Start: period.Chronon(a),
						End:   period.Chronon(a + 1 + rng.Intn(25)),
					}
				}
				queries = append(queries, travelQuery{name: name, scan: catalog.ScanName(name, &tr)})
			}

			checkLegStats := func(leg string, d *catalog.Catalog) {
				t.Helper()
				for _, name := range names {
					e, err := d.Entry(name)
					if err != nil {
						t.Fatal(err)
					}
					if want := freshStats(t, e.Rel); e.Stats != want {
						recordStoreFuzzFailure(t, "seed=%d leg=%s rel=%s: Stats %+v, a fresh pass gives %+v",
							seed, leg, name, e.Stats, want)
					}
				}
			}
			checkLegStats("mem", mem)

			compare := func(leg string, d *catalog.Catalog) {
				t.Helper()
				checkLegStats(leg, d)
				for _, q := range queries {
					want, _, _, memErr := mem.ResolveScan(q.scan)
					got, _, _, diskErr := d.ResolveScan(q.scan)
					if (memErr == nil) != (diskErr == nil) {
						recordStoreFuzzFailure(t,
							"seed=%d leg=%s scan=%s: resolve errors diverge: mem=%v disk=%v",
							seed, leg, q.scan, memErr, diskErr)
					}
					if memErr != nil {
						continue
					}
					if !want.EqualAsList(got) {
						recordStoreFuzzFailure(t,
							"seed=%d leg=%s scan=%s: %d disk tuples differ from %d in-memory tuples",
							seed, leg, q.scan, got.Len(), want.Len())
					}
					if !want.Order().Equal(got.Order()) {
						recordStoreFuzzFailure(t,
							"seed=%d leg=%s scan=%s: order %v differs from %v",
							seed, leg, q.scan, got.Order(), want.Order())
					}
				}
			}

			compare("live", disk)
			if rng.Intn(2) == 0 {
				if err := disk.Compact(names[rng.Intn(len(names))]); err != nil {
					t.Fatal(err)
				}
				compare("compacted", disk)
			}
			reopened, err := catalog.OpenDir(dir)
			if err != nil {
				recordStoreFuzzFailure(t, "seed=%d: reopen: %v", seed, err)
			}
			compare("reopened", reopened)
			if disk.Fingerprint() != reopened.Fingerprint() {
				recordStoreFuzzFailure(t, "seed=%d: fingerprint changed across reopen", seed)
			}
		})
	}
}
