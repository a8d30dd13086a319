package equiv

import "tqp/internal/relation"

// ResultType is the type of result a user-level query specifies
// (Definition 5.1): a list when ORDER BY is present, a set when DISTINCT is
// present without ORDER BY, and a multiset otherwise.
type ResultType uint8

// Result types per Definition 5.1.
const (
	ResultMultiset ResultType = iota
	ResultList
	ResultSet
)

// String renders the result type.
func (rt ResultType) String() string {
	switch rt {
	case ResultList:
		return "list"
	case ResultSet:
		return "set"
	default:
		return "multiset"
	}
}

// Guard returns the equivalence the plans of a query with this result type
// must preserve (the ≡SQL of Definition 5.1), ignoring the ORDER BY
// refinement of the list case.
func (rt ResultType) Guard() Type {
	switch rt {
	case ResultList:
		return List
	case ResultSet:
		return Set
	default:
		return Multiset
	}
}

// CheckSQL implements the ≡SQL test of Definition 5.1: it reports whether
// two query results are interchangeable for a query with the given result
// type and ORDER BY list.
//
// For the list case the paper uses ≡L,A — agreement of the projections onto
// the ORDER BY list A; we additionally require multiset equality so that a
// "correct" plan cannot change the result's content off the A attributes
// (the paper's Definition 5.1 leaves that implicit; TestCheckSQL pins it).
func CheckSQL(rt ResultType, orderBy relation.OrderSpec, a, b *relation.Relation) (bool, error) {
	switch rt {
	case ResultList:
		ok, err := Check(Multiset, a, b)
		if err != nil || !ok {
			return false, err
		}
		return ListOn(orderBy, a, b), nil
	case ResultSet:
		return Check(Set, a, b)
	default:
		return Check(Multiset, a, b)
	}
}
