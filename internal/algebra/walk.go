package algebra

import (
	"fmt"
	"strings"

	"tqp/internal/relation"
)

// Path addresses a node within a tree as the sequence of child indices from
// the root; the empty path is the root itself. Paths are the "locations" of
// the paper's enumeration algorithm (Figure 5).
type Path []int

// String renders the path as "0.1.0"; the root is "ε".
func (p Path) String() string {
	if len(p) == 0 {
		return "ε"
	}
	parts := make([]string, len(p))
	for i, c := range p {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ".")
}

// Clone returns an independent copy of the path.
func (p Path) Clone() Path { return append(Path(nil), p...) }

// Child extends the path by one child index.
func (p Path) Child(i int) Path {
	out := make(Path, len(p)+1)
	copy(out, p)
	out[len(p)] = i
	return out
}

// NodeAt returns the node addressed by path, or an error if the path leaves
// the tree.
func NodeAt(root Node, path Path) (Node, error) {
	n := root
	for d, i := range path {
		ch := n.Children()
		if i < 0 || i >= len(ch) {
			return nil, fmt.Errorf("algebra: path %s invalid at depth %d under %s", path, d, n.Label())
		}
		n = ch[i]
	}
	return n, nil
}

// ReplaceAt returns a new tree in which the node addressed by path is
// replaced by repl. Untouched subtrees are shared with the original.
func ReplaceAt(root Node, path Path, repl Node) (Node, error) {
	// WithChildren copies its arguments, so one scratch slice serves every
	// level of the rebuilt spine.
	return replaceAt(root, path, repl, make([]Node, 0, 2))
}

func replaceAt(root Node, path Path, repl Node, scratch []Node) (Node, error) {
	if len(path) == 0 {
		return repl, nil
	}
	ch := root.Children()
	i := path[0]
	if i < 0 || i >= len(ch) {
		return nil, fmt.Errorf("algebra: path %s invalid under %s", path, root.Label())
	}
	newChild, err := replaceAt(ch[i], path[1:], repl, scratch)
	if err != nil {
		return nil, err
	}
	newCh := append(scratch[:0], ch...)
	newCh[i] = newChild
	return root.WithChildren(newCh...), nil
}

// Walk visits every node of the tree in pre-order, passing its path; if fn
// returns false the node's subtree is skipped.
func Walk(root Node, fn func(n Node, path Path) bool) {
	walk(root, nil, fn)
}

func walk(n Node, path Path, fn func(Node, Path) bool) {
	if !fn(n, path) {
		return
	}
	for i, c := range n.Children() {
		walk(c, path.Child(i), fn)
	}
}

// Paths returns the path of every node in pre-order.
func Paths(root Node) []Path {
	var out []Path
	Walk(root, func(_ Node, p Path) bool {
		out = append(out, p.Clone())
		return true
	})
	return out
}

// Count returns the number of nodes in the tree.
func Count(root Node) int {
	n := 0
	Walk(root, func(Node, Path) bool { n++; return true })
	return n
}

// Validate derives the schema of every node, surfacing the first structural
// error anywhere in the tree.
func Validate(root Node) error {
	var firstErr error
	Walk(root, func(n Node, p Path) bool {
		if _, err := n.Schema(); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("at %s (%s): %w", p, n.Label(), err)
			}
			return false
		}
		return true
	})
	return firstErr
}

// Canonical renders the whole tree as a single-line canonical string; two
// trees are structurally equal exactly when their canonical strings match.
// The enumeration algorithm uses it to deduplicate generated plans. Each
// node builds its string once, from its label and its children's strings,
// so a plan that shares subtrees with another renders only its new nodes.
func Canonical(n Node) string {
	ch := n.Children()
	if len(ch) == 0 {
		return n.Label()
	}
	d := n.derived()
	d.keyOnce.Do(func() {
		label := n.Label()
		size := len(label) + len(ch) + 1
		for _, c := range ch {
			size += len(Canonical(c))
		}
		var b strings.Builder
		b.Grow(size)
		b.WriteString(label)
		b.WriteByte('(')
		for i, c := range ch {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(Canonical(c))
		}
		b.WriteByte(')')
		d.key = b.String()
	})
	return d.key
}

// Render prints the tree in the indented style of Figures 2 and 6, one
// operator per line, children indented beneath their parent. The optional
// annotate callback appends a suffix to each node's line (used to show the
// property vectors of Figure 6).
func Render(root Node, annotate func(n Node, path Path) string) string {
	var b strings.Builder
	render(&b, root, nil, "", annotate)
	return b.String()
}

func render(b *strings.Builder, n Node, path Path, indent string, annotate func(Node, Path) string) {
	b.WriteString(indent)
	b.WriteString(n.Label())
	if annotate != nil {
		if suffix := annotate(n, path); suffix != "" {
			b.WriteString("  ")
			b.WriteString(suffix)
		}
	}
	b.WriteByte('\n')
	for i, c := range n.Children() {
		render(b, c, path.Child(i), indent+"  ", annotate)
	}
}

// BindLeaves cuts one region out of a tree: every subtree whose root
// satisfies cut is replaced by a base-relation leaf over the relation bind
// returns for it — visited left to right — and the nodes above are rebuilt
// over the new leaves. bind receives the cut node and its path, which is
// also the leaf's path in the result. A leaf is named "@" plus its path and
// carries the relation's schema and order, so delivered orders derive
// through the region as they would have from the subtree; the returned map
// resolves the names.
func BindLeaves(root Node, cut func(Node) bool, bind func(n Node, path Path) (*relation.Relation, error)) (Node, map[string]*relation.Relation, error) {
	bound := make(map[string]*relation.Relation)
	var rebuild func(n Node, path Path) (Node, error)
	rebuild = func(n Node, path Path) (Node, error) {
		if cut(n) {
			r, err := bind(n, path)
			if err != nil {
				return nil, err
			}
			name := "@" + path.String()
			bound[name] = r
			return NewRel(name, r.Schema(), BaseInfo{Order: r.Order()}), nil
		}
		ch := n.Children()
		if len(ch) == 0 {
			return n, nil
		}
		rebuilt := make([]Node, len(ch))
		for i, c := range ch {
			var err error
			if rebuilt[i], err = rebuild(c, path.Child(i)); err != nil {
				return nil, err
			}
		}
		return n.WithChildren(rebuilt...), nil
	}
	out, err := rebuild(root, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, bound, nil
}
