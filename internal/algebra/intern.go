package algebra

import (
	"fmt"
	"sync/atomic"
)

// Interner hash-conses the plan nodes of one search: it hands out one node
// per distinct subtree, so two structurally equal subtrees are one pointer,
// and numbers the nodes it hands out densely, 0 to Len()-1. Every memo of
// the search — its seen set, its states, its estimates, its rule matches —
// is then a slice indexed by node id (two slots per node, one per site),
// derives each distinct subtree once, and deciding whether a plan was seen
// before is an index rather than a rendering of its canonical string.
//
// Two nodes are the same when their labels (the operator with its
// parameters, as Canonical renders it) and their children agree, the
// children being interned already and so compared by id: this is
// Canonical's equality, decided without rendering a subtree. Each distinct
// label is numbered too, so the table is keyed on a label id and child ids,
// and a node's label string is hashed once, when the node is first
// registered.
//
// A node belongs to the first table that registers it: it records the
// table and its id there, claiming itself with a compare-and-swap. Nodes
// are shared by concurrent queries, so a table handed a node that another
// table owns rebuilds an equal node of its own and never relabels it.
//
// An Interner is not safe for concurrent use; the nodes it hands out are
// ordinary immutable nodes.
type Interner struct {
	serial  uint64              // the owner mark of this table's nodes
	nodes   map[internKey]int32 // node id by label id and child ids
	labels  map[labelKey]int32  // label id by operator and label
	list    []interned          // by node id
	scratch []Node              // WithChildren's argument; it copies and does not keep it
}

// interned is a node the table handed out, with its label's id.
type interned struct {
	n     Node
	label int32
}

// internKey identifies a node by label id and child ids, -1 where a child
// is absent.
type internKey struct {
	label int32
	kids  [2]int32
}

// labelKey identifies a label: a relation's label is its name, which could
// spell another operator's label.
type labelKey struct {
	op    Op
	label string
}

// interners hands each table its owner mark; 0 marks a node no table owns.
var interners atomic.Uint64

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{
		serial:  interners.Add(1),
		nodes:   make(map[internKey]int32),
		labels:  make(map[labelKey]int32),
		list:    make([]interned, 0, 64),
		scratch: make([]Node, 0, 2),
	}
}

// Len returns how many nodes the table has handed out; their ids are
// 0 to Len()-1.
func (in *Interner) Len() int { return len(in.list) }

// ID returns n's id in the table, and false when the table did not hand n
// out.
func (in *Interner) ID(n Node) (int32, bool) {
	d := n.derived()
	if d.owner.Load() != in.serial {
		return -1, false
	}
	return d.id, true
}

// Intern returns the interned node structurally equal to n, interning n's
// subtree bottom-up. A node the table owns is returned as it is; a node no
// table owns, whose children are interned and that has no twin yet, is
// registered as it is; any other is rebuilt over its interned children.
// Interning stops at the first node the table owns on each path, so
// re-interning a rewrite that shares most of a plan costs only its new
// nodes.
func (in *Interner) Intern(n Node) Node {
	if _, ok := in.ID(n); ok {
		return n
	}
	ch := n.Children()
	k := internKey{kids: [2]int32{-1, -1}}
	same := true
	for i, c := range ch {
		ic := in.Intern(c)
		k.kids[i] = ic.derived().id
		same = same && ic == c
	}
	k.label = in.labelID(n)
	if id, ok := in.nodes[k]; ok {
		return in.list[id].n
	}
	if same && n.derived().owner.CompareAndSwap(0, in.serial) {
		return in.register(n, k)
	}
	return in.build(n, k)
}

// labelID returns the id of n's label, numbering it on first sight.
func (in *Interner) labelID(n Node) int32 {
	lk := labelKey{op: n.Op(), label: labelOf(n)}
	id, ok := in.labels[lk]
	if !ok {
		id = int32(len(in.labels))
		in.labels[lk] = id
	}
	return id
}

// with returns the interned node with template's operator and parameters
// over the interned children k.kids, building it on a miss.
func (in *Interner) with(template Node, k internKey) Node {
	if id, ok := in.nodes[k]; ok {
		return in.list[id].n
	}
	return in.build(template, k)
}

// build makes and registers a node of the table's own with template's
// operator and parameters over the interned children k.kids; nothing else
// has seen it, so the table claims it outright.
func (in *Interner) build(template Node, k internKey) Node {
	var n Node
	if r, ok := template.(*Rel); ok {
		// A leaf's WithChildren returns the leaf itself.
		n = NewRel(r.Name, r.Sch, r.Info)
	} else {
		in.scratch = in.scratch[:0]
		for _, id := range k.kids[:len(template.Children())] {
			in.scratch = append(in.scratch, in.list[id].n)
		}
		n = template.WithChildren(in.scratch...)
	}
	d := n.derived()
	// The rebuilt node renders its template's label: hand it over.
	d.labelOnce.Do(func() { d.label = labelOf(template) })
	d.owner.Store(in.serial)
	return in.register(n, k)
}

// register records n, which the table has just claimed, under the next id.
func (in *Interner) register(n Node, k internKey) Node {
	id := int32(len(in.list))
	n.derived().id = id
	in.nodes[k] = id
	in.list = append(in.list, interned{n, k.label})
	return n
}

// ReplaceAt is ReplaceAt over interned nodes: root and repl are interned
// first (a no-op for nodes the table owns), and so is the result. A rewrite
// that rediscovers a known plan finds every node of its spine in the table
// and builds none.
func (in *Interner) ReplaceAt(root Node, path Path, repl Node) (Node, error) {
	if len(path) == 0 {
		return in.Intern(repl), nil
	}
	root = in.Intern(root)
	ch := root.Children()
	i := path[0]
	if i < 0 || i >= len(ch) {
		return nil, fmt.Errorf("algebra: path %s invalid under %s", path, root.Label())
	}
	c, err := in.ReplaceAt(ch[i], path[1:], repl)
	if err != nil {
		return nil, err
	}
	k := internKey{label: in.list[root.derived().id].label, kids: [2]int32{-1, -1}}
	for j, x := range ch {
		k.kids[j] = x.derived().id
	}
	k.kids[i] = c.derived().id
	return in.with(root, k), nil
}
