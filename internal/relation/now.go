package relation

// BindNow returns a copy of a temporal relation in which every
// NOW-relative tuple (period end = period.NowMarker) is bound to the given
// reference instant; tuples whose bound period is empty (facts that had not
// yet started as of the instant) are dropped. Non-temporal relations are
// returned unchanged. This implements the stratum-side "as of" view the
// paper's future-work section points to (Section 7).
import "tqp/internal/period"

// BindNow materializes the relation as of the given instant.
func (r *Relation) BindNow(now period.Chronon) *Relation {
	if !r.Temporal() {
		return r.Clone()
	}
	t1, t2 := r.schema.TimeIndices()
	out := New(r.schema)
	for i, t := range r.Tuples() {
		p := r.PeriodOf(i).BindNow(now)
		if p.Empty() {
			continue
		}
		if p.Equal(r.PeriodOf(i)) {
			out.Append(t)
		} else {
			out.Append(t.WithPeriodAt(t1, t2, p))
		}
	}
	out.SetOrder(r.order)
	return out
}

// HasNowRelative reports whether any tuple's period ends at the NOW
// sentinel.
func (r *Relation) HasNowRelative() bool {
	if !r.Temporal() {
		return false
	}
	for i := range r.Len() {
		if r.PeriodOf(i).IsNowRelative() {
			return true
		}
	}
	return false
}
