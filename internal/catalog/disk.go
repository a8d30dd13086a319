package catalog

import (
	"fmt"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/relation"
	"tqp/internal/store"
)

// OpenDir opens (or initializes) the persistent store at dir and returns a
// catalog over its relations. Every relation is materialized on open — cold
// open is the one disk pass; scans then run in memory, with the per-segment
// period index still pruning travel scans via the manifest's fences.
func OpenDir(dir string) (*Catalog, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	c := New()
	c.st = st
	for _, name := range st.Relations() {
		if err := c.loadEntry(name); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// DiskBacked reports whether the catalog persists to a store directory.
func (c *Catalog) DiskBacked() bool { return c.st != nil }

// Store exposes the backing store (nil for in-memory catalogs), for tests
// and tooling that inspect the on-disk state.
func (c *Catalog) Store() *store.Store { return c.st }

// loadEntry (re)materializes one relation from the store into the catalog.
func (c *Catalog) loadEntry(name string) error {
	r, err := c.st.Load(name)
	if err != nil {
		return err
	}
	info, err := c.st.Info(name)
	if err != nil {
		return err
	}
	segs, err := c.st.Segments(name)
	if err != nil {
		return err
	}
	c.entries[name] = &Entry{Name: name, Rel: r, Info: info, Stats: Stats{}.extend(r, 0), segs: segs}
	return nil
}

// AddDisk registers a relation in a disk-backed catalog, persisting its
// schema, verified info, and tuples before the in-memory entry appears; a
// crash between Create and Append leaves a committed empty relation, never a
// half-visible one.
func (c *Catalog) AddDisk(name string, r *relation.Relation, info algebra.BaseInfo) error {
	if c.st == nil {
		return fmt.Errorf("catalog: AddDisk on an in-memory catalog")
	}
	if _, dup := c.entries[name]; dup {
		return fmt.Errorf("catalog: relation %q already exists", name)
	}
	if err := verifyInfo(name, r, info); err != nil {
		return err
	}
	if err := c.st.Create(name, r.Schema(), info); err != nil {
		return err
	}
	if err := c.st.Append(name, r.Tuples()); err != nil {
		return err
	}
	return c.loadEntry(name)
}

// AppendTuples appends rows to a relation, writing a new segment through to
// the store first (disk-backed catalogs). The combined relation is
// re-verified against the declared info before anything is written: an
// append that would falsify Distinct, order, or any other planning promise
// is rejected whole.
func (c *Catalog) AppendTuples(name string, rows []relation.Tuple) error {
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if len(rows) == 0 {
		return nil
	}
	sch := e.Rel.Schema()
	for _, t := range rows {
		if err := t.CheckAgainst(sch); err != nil {
			return fmt.Errorf("catalog: append to %q: %w", name, err)
		}
	}
	combined := relation.FromTuplesTrusted(sch, slices.Concat(e.Rel.Tuples(), rows))
	if err := verifyInfo(name, combined, e.Info); err != nil {
		return err
	}
	if c.st != nil {
		if err := c.st.Append(name, rows); err != nil {
			return err
		}
		segs, err := c.st.Segments(name)
		if err != nil {
			return err
		}
		e.segs = segs
	}
	combined.SetOrder(e.Info.Order)
	e.Stats = e.Stats.extend(combined, e.Rel.Len())
	e.Rel = combined
	return nil
}

// AppendRows is AppendTuples over raw row literals.
func (c *Catalog) AppendRows(name string, rows [][]any) error {
	e, ok := c.entries[name]
	if !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	r, err := relation.FromRows(e.Rel.Schema(), rows)
	if err != nil {
		return fmt.Errorf("catalog: append to %q: %w", name, err)
	}
	return c.AppendTuples(name, r.Tuples())
}

// Compact rewrites a disk-backed relation's segments into one, re-fencing
// the period index over the merged run.
func (c *Catalog) Compact(name string) error {
	if c.st == nil {
		return fmt.Errorf("catalog: Compact on an in-memory catalog")
	}
	if _, ok := c.entries[name]; !ok {
		return fmt.Errorf("catalog: unknown relation %q", name)
	}
	if err := c.st.Compact(name); err != nil {
		return err
	}
	return c.loadEntry(name)
}

// ImportFrom copies every relation of src into this disk-backed catalog.
// It is the seeding path for a fresh -db-dir: open, find the store empty,
// import the built-in database once, and every later open reads disk.
func (c *Catalog) ImportFrom(src *Catalog) error {
	for _, name := range src.Names() {
		e := src.entries[name]
		if err := c.AddDisk(name, e.Rel, e.Info); err != nil {
			return err
		}
	}
	return nil
}
