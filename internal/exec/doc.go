// Package exec implements the streaming, hash- and merge-based execution
// engine: a pull evaluator over algebra plans, batch-at-a-time throughout,
// whose physical operators beat the reference evaluator (package eval)
// asymptotically while producing bit-identical result lists.
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
// # One pull interface
//
// Every operator is a vecIterator (vec.go): nextBatch hands the parent a
// column.Batch — typed column planes plus a selection vector, the one
// column type the relation, spill, store and server packages share — and
// that is the only currency between operators, inside the exchange driver
// and on the way to and from disk. The engine itself builds tuples
// nowhere: drainVec hands the root's batch over as a columnar-primary
// result relation (relation.FromColumnar), and batchOf scans a relation
// through relation.Columns, its primary batch or cached image, converting
// only a tuple list it has never seen. A result scanned again — a TS leaf
// bound from a DBMS subplan, a TD leaf bound from a stratum region — is
// read from its own batch. A plan that is a bare scan feeds no operator,
// so scanList answers it in the relation's own form, batch or tuple list,
// converting nothing. Tuples appear only when a reader of a result asks for
// them. (An expression that is evaluated on a tuple — a residual join
// predicate, an aggregate's argument — gets one reusable scratch row.)
//
//	operator            algorithms (file)
//	scan                the relation's batch (relation.Columns), whole (stream.go)
//	σ, π                selection views, zero-copy column gather (vecops.go)
//	sort                row-index permutation sorted by (key, row index), W-way
//	                    index runs; external merge sort under a budget
//	                    (vecmerge.go, sort.go)
//	⊔                   stream concatenation (stream.go)
//	×, ×ᵀ, ⋈, ⋈ᵀ        one hash join kernel over the predicate's equality
//	                    keys — none for a keyless product, whose build side is
//	                    the one group of the empty key — probe ranges on the
//	                    worker pool, hybrid grace join under a budget with a
//	                    block nested loop when there is no key to partition
//	                    on; merge join over aligned orders (vecops.go,
//	                    join.go, parallel.go, vecmerge.go)
//	rdup                pipelined hash set, adjacent compare, partition body
//	\, ∪                two-pointer merge over a shared total order, else
//	                    partition bodies
//	rdupᵀ, coalᵀ, 𝒢, 𝒢ᵀ  one partition body each, run by the exchange driver
//	                    or — groups contiguous — by the streaming group stage
//	                    (merge.go); 𝒢 also pipelined hash aggregation
//	\ᵀ, ∪ᵀ              partition bodies (temporal.go)
//
// Every keyed blocking operator — rdup, \, ∪, rdupᵀ, coalᵀ, \ᵀ, ∪ᵀ, 𝒢, 𝒢ᵀ and
// the spilled keyed join — is one partition body over rows of a batch, run by
// the exchange driver (grace.go): resident and whole (the sequential engine),
// W-way on the worker pool, or spilled with recursion, its outputs gathered
// by sequence key straight into output batches. rdupᵀ, \ᵀ, ∪ᵀ and 𝒢ᵀ are one
// multiplicity sweep per value group (temporal.go): sorted, distinct
// endpoints cut the timeline into elementary intervals, a ±1 pass counts
// each side on them, and a combiner decides what each yields — min(c, 1)
// for rdupᵀ, max(cₗ − cᵣ, 0) for \ᵀ, max(cᵣ − cₗ, 0) past the left list for
// ∪ᵀ, the aggregate of the active rows for 𝒢ᵀ; coalᵀ merges adjacent
// periods (coalTSpans). The sweep's buffers belong to one body call — a grace
// partition or a groupCutIter slice — and are reset per group. The temporal
// bodies emit (source row, period) spans and never touch a value column; 𝒢
// and 𝒢ᵀ fold rows through one scratch tuple.
//
// RunFragment (partial.go), the shard side of distributed execution, is not
// a second implementation of any operator: a fragment is a plan subtree, and
// it compiles onto this engine, the rows' global sequence keys riding along
// as a column through its σ, π and sort nodes.
//
// Under an observer (eval.NodeObserver — the stratum executor installs one
// for every region) build wraps each plan node's source in a pass-through
// stage (engine.go) that counts the rows and batches crossing it; a run
// nobody observes compiles none.
//
// # The delivered-order contract
//
// Every compiled pipeline stage (the internal source struct) carries,
// besides its batch stream and schema, the order its stream delivers — derived
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
//     (groupCutIter): cut the batch stream at group boundaries, run the
//     operator's partition body over each slice of whole groups, emit,
//     repeat — state bounded by one group, no hash table, no global
//     materialization. Contiguity is a property of the delivered order, not
//     a separate operator.
//
// When no order helps, the hash variants run: hash join on extracted
// equi-keys (on the empty key for a keyless product), hash multiplicity
// counters for \ and ∪, hash-grouped temporal operators
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
// parallel join and sort), and every route reassembles its
// partitions through the one deterministic sequence-key gather.
//
// # Adding a physical operator
//
// One implementation per algorithm, one pull interface: an operator is a
// vecIterator, and a new variant replaces the old one in the same change,
// together with whatever selected between them. Do not add an option, a build-time switch or a fallback that keeps the old
// path reachable — internal/eval is the reference, and bit-identity to it
// is what licenses the deletion. Two algorithms for one operator may
// coexist only when the build step chooses between them from something it
// observes (a delivered order, the configured width or budget), never from
// a flag whose only job is to pick an implementation.
//
// Adding a keyed blocking operator means writing one partition body and
// naming its key columns — never a parallelX or graceX source. The body
// (a partBody, see keepBody or tunionBody) is a pure function over one
// partition: rows of a batch in arrival order plus their sequence keys. It
// emits rows — of the partition's batch or of one it builds — under
// non-decreasing sequence keys, replacing periods through emitted.per
// rather than copying value columns. The build function fills a keyedOp
// (inputs, key columns per side, whether the delivered order keeps key
// groups contiguous, output schema) and returns
// Engine.keyedSource(op); residency, the worker pool, spilling, recursion,
// accounting, stats and the gather are the driver's. Rows equal on the key
// must be all the body needs to see together: that is what lets the driver
// split the input anywhere between key groups.
//
// Any other operator adds a case to (*Engine).operator returning a source
// (batch iterator + schema) that pulls its inputs' source.vec. compile has
// already built those inputs and derived the node's schema, and it sets the
// built source's order from props.OrderOf, Table 1's one copy: a builder
// neither builds its inputs nor orders its output, and reads the inputs'
// delivered orders only to choose an algorithm. A new operator's order rule
// goes into props.OrderOf. If the operator has an order-exploiting
// algorithm, put its applicability test in package physical's Decide so the
// engine, the cost model, and the stratum meter make the same choice, and
// extend the differential fuzz generator (internal/testutil) with shapes
// that trigger it. The cost model's order-conditional formulas (cost.Params
// MergeTuple/SortVerifyFactor/MergeUnitsFactor and the Params.OpUnits
// meter) should be recalibrated when an algorithm's asymptotic shape
// changes.
package exec
