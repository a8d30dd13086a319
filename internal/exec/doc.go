// Package exec implements the streaming, hash- and merge-based execution
// engine: a pull-iterator evaluator over algebra plans whose physical
// operators beat the reference evaluator (package eval) asymptotically
// while producing bit-identical result lists.
//
// # Two engines, one semantics
//
// There are two engines: the reference evaluator and this one. The
// reference evaluator is the executable specification — every operator
// materializes its input and joins or deduplicates with nested loops, making
// it easy to audit against the paper's definitions but quadratic nearly
// everywhere. This package is the performance engine. Both implement
// eval.Engine and both produce the same result *list* for every plan, not
// merely an equivalent multiset. That strong contract is deliberate: the
// list algebra is order-sensitive (coalescing on a permuted input can
// produce a genuinely different multiset), so the only safe division of
// labour is for physical operators to change *how* a result is computed,
// never *which list* comes out. The reference evaluator is the sole oracle:
// differential tests (differential_test.go, order_test.go, spill_test.go)
// drive hundreds of random conventional and temporal plans through it and
// through this engine hash-only, full, parallel and budgeted, and assert
// exact list equality plus identical Table 1 order annotations.
//
// Inside this package each algorithm is implemented once. An operator may
// have several algorithms — hash, merge, streaming group-at-a-time — chosen
// from what the build step can observe (delivered orders, and the Config's
// Parallelism and MemoryBudget); it never has two implementations of the
// same algorithm with a switch between them, and it is never written once
// per *route*: how a keyed blocking operator's input is held (resident,
// partitioned across workers, spilled to disk) is the exchange driver's
// business, not the operator's.
//
// # Batches and tuples
//
// The currency between operators, and inside the exchange driver, is the
// columnar batch (vec.go): typed column planes plus a selection vector. σ,
// π, the in-memory sort, the keyed joins (hash, merge, parallel, budgeted
// hybrid), the merge \ and ∪, the pipelined and adjacent-compare rdup and
// the pipelined 𝒢 are batch iterators (vecops.go, vecmerge.go). Every keyed
// blocking operator — rdup, \, ∪, rdupᵀ, coalᵀ, \ᵀ, ∪ᵀ, 𝒢, 𝒢ᵀ and the
// spilled keyed join — is one partition body over rows of a batch, run by
// the exchange driver (grace.go): resident and whole (the sequential
// engine), W-way on the worker pool, or spilled with recursion, its outputs
// gathered by sequence key straight into output batches. The temporal
// bodies read and write only (source row, period) spans — the kernels
// rdupTSpans, coalTSpans, tdiffGroupFragments and tunionExtraPeriods, each
// written once — and never touch a value column.
//
// ⊔ concatenates its inputs' batch streams; the budgeted external sort
// (mergeSortIter) cuts its runs from batches, sorts them as row-index
// permutations, spills them as columnar blocks and merges into batches.
//
// What remains tuple-at-a-time only: the keyless products (productIter, its
// parallel exchange and its spilled nested loop) and the streaming
// group-at-a-time family (groupIter, whose rdupᵀ/coalᵀ emitters call the
// same span kernels). Every compiled stage exposes both views —
// source.vecInput() adapts a tuple-only stage into batches, and a batch
// stage's tuple iterator is the reverse adapter, cutting a batch's tuples
// from one backing array — so either kind of operator composes over either
// kind of child and the adapters are the only place the two meet. The
// statement path hands the engine whole regions between transfers (package
// stratum), so tuples exist at a region's leaves and at its root, and a
// batch never remembers the tuples it came from.
//
// Under an observer (eval.NodeObserver — the stratum executor installs one
// for every region) build wraps each plan node's source in a pass-through
// stage (engine.go) that counts the rows and batches crossing it; a run
// nobody observes compiles none.
//
// # The delivered-order contract
//
// Every compiled pipeline stage (the internal source struct) carries,
// besides its iterators and schema, the order its stream delivers — derived
// at build time with the same Table 1 propagation rules the reference
// evaluator applies at run time (and that props.State.Order derives
// statically; the golden matrix in order_golden_test.go pins all three to
// each other). Delivered orders are list invariants, and the engine spends
// them in three ways, all decided by the shared procedure in package
// physical so the cost model prices exactly what the engine compiles:
//
//   - Sort elision. sort_A over an input delivering an order A is a prefix
//     of is a physical no-op (a stable sort cannot move any tuple); the
//     build step returns the input stage unchanged, stronger order
//     included. Config.NoSortElision disables this for differential
//     testing and the order experiment, and the elided/performed property
//     test asserts bit-equal outputs either way.
//
//   - Merge operators. With key-covering aligned orders on both inputs,
//     joins merge instead of hashing (vecMergeJoinIter: a monotone pointer
//     over the materialized sorted right side, emitting the hash join's
//     exact left-major pair order); \ and ∪ run two-pointer merges over a
//     shared total order; rdup degenerates to an adjacent comparison.
//
//   - Streaming grouping. rdupᵀ, coalᵀ, 𝒢 and 𝒢ᵀ over inputs whose
//     delivered order keeps their groups contiguous run group-at-a-time
//     (groupIter): pull one group, transform it with the same group-local
//     algorithm the hash path uses, emit, repeat — bounded state, no hash
//     table, no global materialization.
//
// When no order helps, the hash variants run: hash join on extracted
// equi-keys with a block-nested-loop fallback for keyless products, hash
// multiplicity counters for \ and ∪, hash-grouped temporal operators
// (skipping the hash table when the input order proves groups contiguous),
// and pipelined hash aggregation. The engine deliberately does NOT "sort
// first and merge" when an input is unsorted: coalescing is not confluent
// under reordering, so a sort-based coalᵀ would change the result multiset,
// not just its order. Config.NoMerge restricts the engine to the hash
// algorithms (the exec-hash spec) — an algorithm restriction only, the
// operators stay batch-at-a-time — and Stats counts which variants
// compiled.
//
// Config.Parallelism and Config.MemoryBudget never change a result list:
// they only move the exchange driver between its routes (and size the
// parallel join, product and sort), and every route reassembles its
// partitions through the one deterministic sequence-key gather.
//
// # Adding a physical operator
//
// One implementation per algorithm: a batch variant replaces the tuple one
// in the same change, together with whatever selected between them. Do
// not add an option, a build-time switch or a fallback that keeps the old
// path reachable — internal/eval is the reference, and bit-identity to it
// is what licenses the deletion. Two algorithms for one operator may
// coexist only when the build step chooses between them from something it
// observes (a delivered order, the configured width or budget), never from
// a flag whose only job is to pick an implementation.
//
// Adding a keyed blocking operator means writing one partition body and
// naming its key columns — never a parallelX or graceX source. The body
// (a partBody, see valueGroupBody or tdiffBody) is a pure function over one
// partition: rows of a batch in arrival order plus their sequence keys. It
// emits rows — of the partition's batch or of one it builds — under
// non-decreasing sequence keys, replacing periods through emitted.per
// rather than copying value columns. The build function fills a keyedOp
// (inputs, key columns per side, whether the delivered order keeps key
// groups contiguous, output schema and Table 1 order) and returns
// Engine.keyedSource(op); residency, the worker pool, spilling, recursion,
// accounting, stats and the gather are the driver's. Rows equal on the key
// must be all the body needs to see together: that is what lets the driver
// split the input anywhere between key groups.
//
// Any other operator adds a case to (*Engine).build returning a source
// (batch iterator + schema + Table 1 order annotation), reading inputs
// through source.vecInput(). Derive the order with the helpers exported
// from package eval (OrderAfterProject, OrderAfterProduct, OrderQualifyTime,
// OrderAfterGroup) so the engines cannot drift. If the operator has an
// order-exploiting algorithm, put its applicability test in package
// physical's Decide so the engine, the cost model, and the stratum meter
// make the same choice, and extend the differential fuzz generator
// (internal/testutil) with shapes that trigger it. The cost model's
// order-conditional formulas (cost.Params
// MergeTuple/SortVerifyFactor/MergeUnitsFactor and the Params.OpUnitsOrdered
// meter) should be recalibrated when an algorithm's asymptotic shape
// changes.
package exec
