package algebra

import "fmt"

// Interner hash-conses the plan nodes of one search: it hands out one node
// per distinct subtree, so two structurally equal subtrees are one pointer.
// Every memo keyed by node identity — a search's seen set, its states, its
// estimates, its rule matches — then derives each distinct subtree once,
// and deciding whether a plan was seen before is a pointer comparison
// rather than a rendering of its canonical string.
//
// Two nodes are the same when their operators, their labels (the operator
// with its parameters, as Canonical renders it) and their children agree,
// the children being interned already and so compared by identity: this
// is Canonical's equality, decided without rendering a subtree.
//
// An Interner is not safe for concurrent use; the nodes it hands out are
// ordinary immutable nodes.
type Interner struct {
	nodes   map[internKey]Node
	scratch []Node // WithChildren's argument; it copies and does not keep it
}

// internKey identifies a node by operator, label and child identity.
type internKey struct {
	op    Op
	label string
	kids  [2]Node
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	return &Interner{nodes: make(map[internKey]Node), scratch: make([]Node, 0, 2)}
}

// Intern returns the interned node structurally equal to n, interning n's
// subtree bottom-up. A node already interned, or one whose children are
// interned and that has no twin yet, is registered as it is; any other is
// rebuilt over its interned children. Interning stops at the first interned
// node on each path, so re-interning a rewrite that shares most of a plan
// costs only its new nodes.
func (in *Interner) Intern(n Node) Node {
	ch := n.Children()
	k := internKey{op: n.Op(), label: labelOf(n)}
	copy(k.kids[:], ch)
	if m, ok := in.nodes[k]; ok {
		return m
	}
	same := true
	for i, c := range ch {
		k.kids[i] = in.Intern(c)
		same = same && k.kids[i] == c
	}
	if !same {
		return in.with(n, k)
	}
	in.nodes[k] = n
	return n
}

// with returns the interned node with template's operator and parameters
// over the interned children k.kids, building it on a miss.
func (in *Interner) with(template Node, k internKey) Node {
	if m, ok := in.nodes[k]; ok {
		return m
	}
	in.scratch = append(in.scratch[:0], k.kids[:len(template.Children())]...)
	n := template.WithChildren(in.scratch...)
	// The rebuilt node renders its template's label: hand it over.
	d := n.derived()
	d.labelOnce.Do(func() { d.label = k.label })
	in.nodes[k] = n
	return n
}

// ReplaceAt is ReplaceAt over interned nodes: root and repl must be
// interned, and so is the result. A rewrite that rediscovers a known plan
// finds every node of its spine in the table and builds none.
func (in *Interner) ReplaceAt(root Node, path Path, repl Node) (Node, error) {
	if len(path) == 0 {
		return repl, nil
	}
	ch := root.Children()
	i := path[0]
	if i < 0 || i >= len(ch) {
		return nil, fmt.Errorf("algebra: path %s invalid under %s", path, root.Label())
	}
	c, err := in.ReplaceAt(ch[i], path[1:], repl)
	if err != nil {
		return nil, err
	}
	k := internKey{op: root.Op(), label: labelOf(root)}
	copy(k.kids[:], ch)
	k.kids[i] = c
	return in.with(root, k), nil
}
