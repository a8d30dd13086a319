package cost

// SegmentRead is the per-segment scan price, for the external tests that
// check a disk scan's cost against it.
const SegmentRead = segmentRead
