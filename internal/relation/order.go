package relation

import (
	"strings"

	"tqp/internal/schema"
)

// Direction is a sort direction, ASC or DESC.
type Direction uint8

// Sort directions.
const (
	Asc Direction = iota
	Desc
)

// String renders the direction as in the paper's order lists ("A ASC").
func (d Direction) String() string {
	if d == Desc {
		return "DESC"
	}
	return "ASC"
}

// OrderKey pairs an attribute with a sort direction.
type OrderKey struct {
	Attr string
	Dir  Direction
}

// String renders "Attr ASC" / "Attr DESC".
func (k OrderKey) String() string { return k.Attr + " " + k.Dir.String() }

// OrderSpec is the paper's Order(r): a list of attributes paired with a
// sorting type. An empty spec denotes an unordered relation.
type OrderSpec []OrderKey

// Key is shorthand for an ascending OrderKey.
func Key(attr string) OrderKey { return OrderKey{Attr: attr, Dir: Asc} }

// KeyDesc is shorthand for a descending OrderKey.
func KeyDesc(attr string) OrderKey { return OrderKey{Attr: attr, Dir: Desc} }

// Empty reports whether the spec denotes an unordered relation.
func (o OrderSpec) Empty() bool { return len(o) == 0 }

// Equal reports element-wise equality of two specs.
func (o OrderSpec) Equal(p OrderSpec) bool {
	if len(o) != len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf implements the paper's IsPrefixOf predicate (Section 4.4): it
// reports whether o is a prefix of p.
func (o OrderSpec) IsPrefixOf(p OrderSpec) bool {
	if len(o) > len(p) {
		return false
	}
	for i := range o {
		if o[i] != p[i] {
			return false
		}
	}
	return true
}

// Prefix implements the paper's Prefix function (Table 1): the largest
// prefix of o whose attributes all belong to keep. For example, a relation
// sorted on A, B, C projected on {A, C} is sorted on A.
func (o OrderSpec) Prefix(keep []string) OrderSpec {
	keepSet := make(map[string]bool, len(keep))
	for _, k := range keep {
		keepSet[k] = true
	}
	var out OrderSpec
	for _, k := range o {
		if !keepSet[k.Attr] {
			break
		}
		out = append(out, k)
	}
	return out
}

// TimeFreePrefix returns the largest prefix of o that mentions neither T1
// nor T2. Table 1 writes the order of period-modifying operations (×ᵀ, \ᵀ,
// rdupᵀ, coalᵀ) as "Order(r) \ TimePairs"; removing interior time attributes
// is not sound for a list invariant, so we take the largest time-free
// prefix, which is — a list sorted on an order is sorted on each of its
// prefixes — and agrees with every example in the paper.
func (o OrderSpec) TimeFreePrefix() OrderSpec {
	var out OrderSpec
	for _, k := range o {
		if k.Attr == schema.T1 || k.Attr == schema.T2 {
			break
		}
		out = append(out, k)
	}
	return out
}

// Rename returns a copy of the spec with attribute old renamed to new.
func (o OrderSpec) Rename(old, new string) OrderSpec {
	out := make(OrderSpec, len(o))
	for i, k := range o {
		if k.Attr == old {
			k.Attr = new
		}
		out[i] = k
	}
	return out
}

// Attrs returns the attribute names in the spec, in order.
func (o OrderSpec) Attrs() []string {
	out := make([]string, len(o))
	for i, k := range o {
		out[i] = k.Attr
	}
	return out
}

// String renders "⟨A ASC, B DESC⟩"; "⟨⟩" for unordered.
func (o OrderSpec) String() string {
	if len(o) == 0 {
		return "⟨⟩"
	}
	parts := make([]string, len(o))
	for i, k := range o {
		parts[i] = k.String()
	}
	return "⟨" + strings.Join(parts, ", ") + "⟩"
}

// Validate checks that every attribute in the spec exists in s.
func (o OrderSpec) Validate(s *schema.Schema) error {
	for _, k := range o {
		if !s.Has(k.Attr) {
			return &UnknownAttrError{Attr: k.Attr, Schema: s}
		}
	}
	return nil
}

// UnknownAttrError reports an order key over a missing attribute.
type UnknownAttrError struct {
	Attr   string
	Schema *schema.Schema
}

func (e *UnknownAttrError) Error() string {
	return "relation: order key over unknown attribute " + e.Attr + " in schema " + e.Schema.String()
}
