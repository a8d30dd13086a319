// Package shard derives a deterministic partitioning of a catalog across n
// shards — the coordinator's and the shard servers' shared view of who
// holds which rows. Both sides derive the same Map from the same catalog
// (the derivation is a pure function of the stored data), so no shard map
// ever travels over the wire: tqserver -shard i/n keeps slice i, the
// coordinator plans against the full catalog and knows exactly where every
// row went.
//
// There is one partitioning: every relation is hashed, a row going to the
// shard its canonical key hash (column.HashRows, the tuple hash read off
// the column planes) picks modulo n. The key is the catalog's shared key — the value
// attribute held by the most relations (at least two), ties broken by
// name; EmpName in the paper's database — when the relation holds it, and
// all of the relation's value attributes otherwise. Rows equal on the key
// land on one shard, so any group operation whose grouping includes the
// key (rdupᵀ, coalᵀ, \ᵀ, aggregation) distributes over the partition, and
// relations hashed on the shared key are co-partitioned (CoPartitioned): a
// temporal difference of two of them, or a tree of rdupᵀ, coalᵀ and \ᵀ
// over them that keeps the key, is local to each shard. How a relation is
// stored plays no part in where its rows go. A shard's slice preserves the
// stored order of its rows, so every local row keeps its global sequence
// key (its position in the unsharded relation) — the coordinate system the
// coordinator's deterministic merges work in.
package shard

import (
	"fmt"
	"slices"

	"tqp/internal/catalog"
	"tqp/internal/column"
	"tqp/internal/physical"
	"tqp/internal/relation"
)

// Mode survives only as the argument of NewMapMode; Auto is its one value.
type Mode uint8

// Auto is the one partitioning NewMap derives.
const Auto Mode = 0

// Map is the partitioning of one catalog across N shards.
type Map struct {
	N    int
	cat  *catalog.Catalog
	rels map[string]*relPart
}

type relPart struct {
	key    []string // the hashed attribute names (the colocation set)
	assign []int    // row position -> shard index
}

// NewMapMode is NewMap for callers that still name a mode: Auto derives
// NewMap's partitioning and any other mode is an error.
func NewMapMode(cat *catalog.Catalog, n int, mode Mode) (*Map, error) {
	if mode != Auto {
		return nil, fmt.Errorf("shard: unknown mode %d (only Auto remains)", mode)
	}
	return NewMap(cat, n)
}

// NewMap derives the partitioning of cat across n shards.
func NewMap(cat *catalog.Catalog, n int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: want at least 1 shard, got %d", n)
	}
	m := &Map{N: n, cat: cat, rels: make(map[string]*relPart)}
	shared := sharedKey(cat)
	for _, name := range cat.Names() {
		e, err := cat.Entry(name)
		if err != nil {
			return nil, err
		}
		sch := e.Rel.Schema()
		idx := physical.ValueIdx(sch)
		if j := sch.Index(shared); shared != "" && j >= 0 {
			idx = []int{j}
		}
		p := &relPart{key: make([]string, len(idx)), assign: make([]int, e.Rel.Len())}
		for k, j := range idx {
			p.key[k] = sch.At(j).Name
		}
		b := e.Rel.Columns()
		hs := make([]uint64, b.Rows())
		var rows []int
		column.HashRows(b, b.Presented(&rows), idx, hs)
		for i, h := range hs {
			p.assign[i] = int(h % uint64(n))
		}
		m.rels[name] = p
	}
	return m, nil
}

// sharedKey is the co-partitioning key: the value attribute name held by
// the most of cat's relations, ties broken by the smaller name, or "" when
// no value attribute is held by two relations.
func sharedKey(cat *catalog.Catalog) string {
	held := make(map[string]int)
	for _, name := range cat.Names() {
		e, err := cat.Entry(name)
		if err != nil {
			continue
		}
		sch := e.Rel.Schema()
		for _, j := range physical.ValueIdx(sch) {
			held[sch.At(j).Name]++
		}
	}
	best, most := "", 1
	for a, k := range held {
		if k > most || (k == most && best != "" && a < best) {
			best, most = a, k
		}
	}
	return best
}

// Positions returns the global sequence keys of shard i's slice of rel, in
// stored order.
func (m *Map) Positions(rel string, i int) ([]int, error) {
	p, ok := m.rels[rel]
	if !ok {
		return nil, fmt.Errorf("shard: unknown relation %q", rel)
	}
	if i < 0 || i >= m.N {
		return nil, fmt.Errorf("shard: index %d out of range [0,%d)", i, m.N)
	}
	out := []int{}
	for j, s := range p.assign {
		if s == i {
			out = append(out, j)
		}
	}
	return out, nil
}

// Partition materializes shard i: a catalog holding slice i of every
// relation (stored order preserved, base info carried over — every flag is
// downward-closed under taking subsequences) plus the slices' global
// sequence keys. The sub-catalog is what a shard server loads; the
// positions are what it reports for provenance.
func (m *Map) Partition(i int) (*catalog.Catalog, map[string][]int, error) {
	out := catalog.New()
	positions := make(map[string][]int, len(m.rels))
	for _, name := range m.cat.Names() {
		e, err := m.cat.Entry(name)
		if err != nil {
			return nil, nil, err
		}
		pos, err := m.Positions(name, i)
		if err != nil {
			return nil, nil, err
		}
		// The slice is compacted here, once: a fragment over a dense slice
		// scans its planes as they are (exec.RunFragment compacts a view).
		sub := relation.FromColumnar(e.Rel.Schema(), e.Rel.Permuted(pos).Columns().Compact())
		if err := out.AddTrusted(name, sub, e.Info); err != nil {
			return nil, nil, err
		}
		positions[name] = pos
	}
	return out, positions, nil
}

// Colocated reports whether every group of value-equivalent-on-attrs rows
// of rel lives wholly on one shard — the precondition for pushing a group
// operation on attrs down to the shards. One shard holds everything;
// otherwise the grouping must include every hashed attribute of rel, so
// rows agreeing on attrs agree on the key and hash alike.
func (m *Map) Colocated(rel string, attrs []string) bool {
	p, ok := m.rels[rel]
	if !ok {
		return false
	}
	if m.N == 1 {
		return true
	}
	for _, a := range p.key {
		if !slices.Contains(attrs, a) {
			return false
		}
	}
	return true
}

// CoPartitioned reports whether rows of different relations that agree
// position-wise on their attributes live on one shard: attrs[i] names
// attributes of rels[i], and attrs[i][k] pairs with attrs[j][k] — the
// precondition for pushing a binary group operation (\ᵀ) down to the
// shards. One shard holds everything. Otherwise each relation's hashed
// attributes must sit at the same positions of its attrs in every
// relation, so agreeing rows hash alike wherever they are stored.
func (m *Map) CoPartitioned(rels []string, attrs [][]string) bool {
	if len(rels) != len(attrs) {
		return false
	}
	var at []int // the positions in attrs of the first relation's key
	for i, rel := range rels {
		p := m.rels[rel]
		if p == nil {
			return false
		}
		if m.N == 1 {
			continue
		}
		pos := make([]int, len(p.key))
		for k, a := range p.key {
			if pos[k] = slices.Index(attrs[i], a); pos[k] < 0 {
				return false
			}
		}
		if i > 0 && !slices.Equal(pos, at) {
			return false
		}
		at = pos
	}
	return true
}
