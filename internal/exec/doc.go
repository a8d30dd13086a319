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
// through this engine sequential, parallel and budgeted, and assert exact
// list equality plus identical Table 1 order annotations.
//
// Inside this package each algorithm is implemented once. An operator may
// have several algorithms — hash, merge, streaming group-at-a-time — and
// package physical's Decide chooses among them from what the build step
// observes (delivered orders, and the Config's Parallelism and
// MemoryBudget); it never has two implementations of the
// same algorithm with a switch between them, and it is never written once
// per *route*: how a keyed blocking operator's input is held (resident,
// partitioned across workers, spilled to disk) is the exchange driver's
// business, not the operator's.
//
// # One pull interface
//
// Every operator is a vecIterator (pipeline.go): nextBatch hands the parent a
// column.Batch — typed column planes plus a selection vector, the one
// column type the relation, spill, store and server packages share — and
// that is the only currency between operators, inside the exchange driver
// and on the way to and from disk. The engine itself builds tuples
// nowhere: a relation is its batch, so a scan reads relation.Columns and
// drainVec hands the root's batch over as the result relation
// (relation.FromColumnar). A result scanned again — a TS leaf bound from a
// DBMS subplan, a TD leaf bound from a stratum region — is read from its
// own batch. A plan that is a bare scan feeds no operator, so scanList
// answers with the scanned relation's batch. Tuples appear only when a
// reader of a result asks for them. (An expression that is evaluated on a
// tuple — a residual join predicate, an aggregate's argument — gets one
// reusable scratch row.)
//
//	operator            algorithms (file)
//	scan                the relation's batch (relation.Columns), whole (stream.go)
//	σ, π                selection views, zero-copy column gather (ops.go)
//	sort                one operator: row-index permutation sorted by (key,
//	                    row index) — straight against the plane for one int
//	                    or string key — W-way index runs; past a budget share,
//	                    spilled runs merged by the one merge heap (keys.go,
//	                    mergeops.go, sort.go)
//	⊔                   stream concatenation (stream.go)
//	×, ×ᵀ, ⋈, ⋈ᵀ        one hash join kernel over the predicate's equality
//	                    keys — none for a keyless product, whose build side is
//	                    the one group of the empty key — each probe batch
//	                    split into ranges on the worker pool (one route,
//	                    budgeted or not), hybrid grace join under a budget
//	                    with a block nested loop when there is no key to
//	                    partition on; merge join over aligned orders (ops.go,
//	                    join.go, parallel.go, mergeops.go)
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
// periods (coalTSpans). The sweep's buffers, the group table and the
// groupings belong to one body call — a grace partition or a groupCutIter
// slice: the call takes them from a pool on entry, resets them per group and
// returns them on exit, and nothing it emits points into them. The temporal
// bodies emit (source row, period) spans and never touch a value column; 𝒢
// and 𝒢ᵀ fold rows through one scratch tuple.
//
// # Spilling
//
// Config.MemoryBudget is counted in one currency: column.Batch.Bytes, the
// bytes a range of rows holds on the typed planes (8 B per int, bool,
// chronon or float cell, a 16 B header plus the payload per string cell,
// 40 B plus any string payload per boxed cell). Every place that accounts —
// the drain, splitPart, the sort's runs, a spill file's MemBytes — prices a
// batch range once, never row by row, and the cost model's spill threshold
// prices a row of the schema the same way (column.RowBytes). The
// unbudgeted engine never prices anything.
//
// A keyed operator's drain holds its input until the batch that would cross
// its share, then turns hybrid (DeWitt et al., SIGMOD 1984): what it holds,
// and then the rest of the stream, routes into spillFanout hash buckets,
// and while the resident buckets would exceed the share the largest of
// them spills. Rows of a spilled bucket go to its pass writer, rows of a
// resident one stay in memory, so the drain spills only the overflow; the
// resident bucket pairs then run first, with no encode or decode, and
// return their bytes before the spilled pairs load. Under Parallelism the
// resident input splits W ways on the pool like the unbudgeted one, and
// the spilled pairs run W at a time, each within budget/W.
//
// Spilled state lives in spill passes (package spill), one per
// partitioning step: a drain's buckets and every repartition put all
// spillFanout buckets in one pass, and the external sort (sort.go) puts all
// of its spilled runs in one. A pass is one append-only file, created on
// its first write directly in Config.SpillDir; its buckets' blocks
// interleave there, each bucket reads back its own extents, and the file
// goes with the last bucket consumed. So a statement creates a file per
// spilling step, not per bucket or run (Stats.SpillFiles), and an empty
// bucket costs nothing. The sort is one operator (mergeSortIter): a sort
// that fits its share — every unbudgeted sort, whose rows are never priced
// — sorts once and emits through its permutation; past the share it cuts
// runs by bytes — each concatenated and compacted once,
// sorted as a row permutation (sortRows) — keeps its final run resident
// (under the cut rule at most half the share), and merges them through the
// one merge heap (mergeHeap), emitting column-wise (run, row range)
// stretches.
//
// # Key kernels
//
// Grouping, ordering and partitioning run on the typed column planes
// (keys.go). hashRows hashes a key column at a time, its kind decided once
// per column, bit-identical to relation.Tuple.HashOn, so spill buckets and
// shard placement never move. The group table is one open-addressing table
// of int32 slots over the stored hashes, grown by doubling; it gives every
// keyed operator — rdup, \, ∪, the temporal bodies, 𝒢, the join's build and
// probe — first-occurrence ids confirmed by value equality. A comparator
// picks each key's comparison by kind and direction when it is compiled and
// binds a batch's key planes once; a demoted (boxed) column and floats take
// value.Compare. Every sort, merge, merge join, merge cancel, adjacent dedup
// and the coordinator's MergeParts compare through it. Every k-way merge —
// the gather's, the external sort's runs, the W-way sort's index runs and
// MergeParts — takes its heads off the one merge heap (mergeHeap), ties
// going to the lower stream index, so order by key, then sequence key, then
// stream index is written once. Every in-memory hash split — the W-way
// route's exchange by hash modulo W and a spilled level's fan-out — is the
// one order-preserving splitter, hashSplit, told its bucket function.
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
// them in three ways. compile asks physical.Decide once per node, from the
// inputs' delivered orders and the engine's shape (its width and whether a
// budget is set), and the node's builder compiles exactly the decision it
// gets — no builder tests an order itself — so the cost model, the stratum
// meter and EXPLAIN ANALYZE, which read the same decision, describe what
// ran (TestVariantCountersMatchAnnotation):
//
//   - Sort elision. sort_A over an input delivering an order A is a prefix
//     of is a physical no-op (a stable sort cannot move any tuple); the
//     build step returns the input stage unchanged, stronger order
//     included, on every shape. The reference evaluator always sorts, so
//     the differential suites pin that elision never moves a tuple.
//
//   - Merge operators. With key-covering aligned orders on both inputs,
//     joins merge instead of hashing (vecMergeJoinIter: a monotone pointer
//     over the materialized sorted right side, emitting the hash join's
//     exact left-major pair order); \ and ∪ run two-pointer merges over a
//     shared total order; rdup degenerates to an adjacent comparison. The
//     two-sided merges materialize a side, so only the sequential
//     unbudgeted engine compiles them: a pool or a budget partitions that
//     side instead.
//
//   - Streaming grouping. rdupᵀ, coalᵀ, 𝒢 and 𝒢ᵀ over inputs whose
//     delivered order keeps their groups contiguous run group-at-a-time
//     (groupCutIter): cut the batch stream at group boundaries, run the
//     operator's partition body over each slice of whole groups, emit,
//     repeat — state bounded by one group, no hash table, no global
//     materialization, so the budgeted engine prefers it to partitioning.
//     Under plain parallelism the driver's range exchange splits the same
//     contiguous groups across the pool instead, and the bodies still cut
//     groups without hashing. Contiguity is a property of the delivered
//     order, not a separate operator.
//
// When no order helps, the hash variants run: hash join on extracted
// equi-keys (on the empty key for a keyless product), hash multiplicity
// counters for \ and ∪, hash-grouped temporal operators
// (skipping the hash table when the input order proves groups contiguous),
// and pipelined hash aggregation. The engine deliberately does NOT "sort
// first and merge" when an input is unsorted: coalescing is not confluent
// under reordering, so a sort-based coalᵀ would change the result multiset,
// not just its order. Stats counts which variants compiled, as
// physical.Summarize counts an annotated plan.
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
// already built those inputs, derived the node's schema and taken the
// node's physical.Decision, and it sets the built source's order from
// props.OrderOf, Table 1's one copy: a builder neither builds its inputs
// nor orders its output nor reads their orders — it compiles the decision
// it is handed. A new operator's order rule goes into props.OrderOf. If the
// operator has more than one algorithm, its choice — applicability test,
// the shapes that rule a variant out, and whatever the builder compiles it
// from (keys, contiguity) — goes into package physical's Decide, so the
// engine, the cost model, the stratum meter and EXPLAIN ANALYZE share it;
// extend the differential fuzz generator (internal/testutil) with shapes
// that trigger it. The cost model's order-conditional weights (package
// cost's merge, sort-verify and merge-units prices, which its estimates and
// the stratum meter share) should be recalibrated when an algorithm's
// asymptotic shape changes.
package exec
