// Package tqp — Temporal Query Plans — is a Go implementation of the
// query-optimization foundation of Slivinskas, Jensen and Snodgrass,
// "Query Plans for Conventional and Temporal Queries Involving Duplicates
// and Ordering" (ICDE 2000):
//
//   - a temporally extended relational algebra over list-based relations
//     (duplicates and order are significant), with period-timestamped
//     temporal relations and snapshot-reducible temporal operations;
//   - the six relation equivalence types (list / multiset / set and their
//     snapshot counterparts) with the Theorem 3.1 implication lattice;
//   - the transformation-rule catalog of Section 4 (duplicate elimination,
//     coalescing, sorting, conventional, and stratum-transfer rules), each
//     annotated with the strongest equivalence type it preserves;
//   - the three operation properties (OrderRequired, DuplicatesRelevant,
//     PeriodPreserving) that gate rule applicability, and the Figure 5
//     plan-enumeration algorithm;
//   - a layered (stratum) execution architecture over a simulated
//     conventional DBMS, with SQL generation for the DBMS-assigned
//     subplans;
//   - the cost model and cost-based plan selection the paper lists as
//     future work; and
//   - two interchangeable physical engines for the stratum.
//
// # Two execution engines
//
// Stratum-assigned subplans run on one of two engines implementing
// eval.Engine. The "reference" engine (internal/eval) is the executable
// specification: every operator materializes its input and works by nested
// loops, exactly mirroring the paper's definitions. The "exec" engine
// (internal/exec) is the performance engine: a Volcano-style pull-iterator
// pipeline with hash joins, hash duplicate elimination, hash-partitioned
// temporal operators and pipelined aggregation that beats the reference
// asymptotically while producing bit-identical result lists (enforced by a
// differential fuzz suite and by both engines being pinned to the paper's
// golden fixtures). Select the engine with
//
//	spec, _ := tqp.ResolveEngine("exec")
//	opt := tqp.NewOptimizer(cat, tqp.WithEngine(spec))
//
// which also recalibrates the cost model to the engine's operator shapes, so
// plan choice reflects what the chosen engine will actually pay. The cmd
// tools expose the same switch as the -engine flag. How the optimizer
// divides a plan between the DBMS and the stratum is unchanged — the engine
// decides how stratum operators execute, never where they run; adding a new
// physical operator is documented in internal/exec's package comment.
//
// The quickest route in:
//
//	cat := tqp.PaperCatalog()                  // Figure 1's database
//	opt := tqp.NewOptimizer(cat)
//	result, plans, trace, err := opt.Run(`
//	    VALIDTIME SELECT DISTINCT COALESCED EmpName FROM EMPLOYEE
//	    EXCEPT SELECT EmpName FROM PROJECT
//	    ORDER BY EmpName ASC`)
//
// To serve a catalog to many clients over TCP — with per-connection
// sessions, a shared plan cache and admission control — see
// internal/server and cmd/tqserver (tqshell -connect is the matching
// client).
//
// See the examples directory for runnable programs and internal/experiments
// (run by cmd/tqbench) for the reproduction of each paper artifact.
package tqp

import (
	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/core"
	"tqp/internal/datagen"
	"tqp/internal/equiv"
	"tqp/internal/eval"
	"tqp/internal/exec"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/stratum"
	"tqp/internal/tsql"
	"tqp/internal/value"
)

// Core data model.
type (
	// Relation is a list-based relation instance (Definition 2.2).
	Relation = relation.Relation
	// Tuple is one row of a relation.
	Tuple = relation.Tuple
	// Schema is a relation schema (Definition 2.1); temporal schemas carry
	// the reserved T1/T2 period attributes.
	Schema = schema.Schema
	// Attribute is a named, typed column.
	Attribute = schema.Attribute
	// Period is a closed-open time period.
	Period = period.Period
	// Chronon is an instant of the time domain.
	Chronon = period.Chronon
	// Value is a typed attribute value.
	Value = value.Value
	// OrderSpec is the paper's Order(r): attributes paired with directions.
	OrderSpec = relation.OrderSpec
	// OrderKey is one sort key.
	OrderKey = relation.OrderKey
)

// Planning and execution.
type (
	// Catalog holds named base relations with optimizer metadata.
	Catalog = catalog.Catalog
	// BaseInfo declares a base relation's order and duplicate/coalescing
	// state.
	BaseInfo = algebra.BaseInfo
	// Node is a logical algebra operator tree.
	Node = algebra.Node
	// Optimizer plans, enumerates, costs and executes queries.
	Optimizer = core.Optimizer
	// Plans is an optimization outcome: all enumerated plans plus the
	// cost-chosen best.
	Plans = core.Plans
	// Query is a parsed temporal SQL statement.
	Query = tsql.Query
	// Trace records a layered execution (shipped SQL, transferred tuples,
	// per-site simulated work).
	Trace = stratum.Trace
	// ResultType is a query's Definition 5.1 result type.
	ResultType = equiv.ResultType
	// EquivalenceType is one of the six equivalence types of Section 3.
	EquivalenceType = equiv.Type
)

// Result types per Definition 5.1.
const (
	ResultList     = equiv.ResultList
	ResultMultiset = equiv.ResultMultiset
	ResultSet      = equiv.ResultSet
)

// The six equivalence types of Section 3.
const (
	EquivList             = equiv.List
	EquivMultiset         = equiv.Multiset
	EquivSet              = equiv.Set
	EquivSnapshotList     = equiv.SnapshotList
	EquivSnapshotMultiset = equiv.SnapshotMultiset
	EquivSnapshotSet      = equiv.SnapshotSet
)

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return catalog.New() }

// PaperCatalog returns the paper's Figure 1 database (EMPLOYEE, PROJECT).
func PaperCatalog() *Catalog { return catalog.Paper() }

// OpenDiskCatalog opens (or initializes) the persistent store at dir and
// returns a catalog over its relations. If the store is empty and seed is
// non-nil, seed's relations are imported — persisted — first, so a fresh
// -db-dir starts from the built-in database and every later open reads
// disk. Appends via Catalog.AppendRows write through to new segments; the
// per-segment period index serves FOR SYSTEM_TIME AS OF / FOR PERIOD scans.
func OpenDiskCatalog(dir string, seed *Catalog) (*Catalog, error) {
	cat, err := catalog.OpenDir(dir)
	if err != nil {
		return nil, err
	}
	if len(cat.Names()) == 0 && seed != nil {
		if err := cat.ImportFrom(seed); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// NewOptimizer returns an optimizer over the catalog; see core.Option
// (re-exported below) for configuration.
func NewOptimizer(cat *Catalog, opts ...core.Option) *Optimizer {
	return core.New(cat, opts...)
}

// OptimizerOption configures NewOptimizer (see the With* options below).
type OptimizerOption = core.Option

// Optimizer options.
var (
	// WithMaxPlans caps plan enumeration.
	WithMaxPlans = core.WithMaxPlans
	// WithDBMSSeed selects the simulated DBMS's order behaviour.
	WithDBMSSeed = core.WithDBMSSeed
	// WithCostParams sets the shape the cost model prices (engine width,
	// memory budget, shards) in place of the engine's own.
	WithCostParams = core.WithCostParams
	// WithEngine selects the physical engine for stratum subplans.
	WithEngine = core.WithEngine
	// ResolveEngine maps an engine name ("reference", "exec", "parallel")
	// to its spec.
	ResolveEngine = core.EngineSpec
	// ResolveEngineFor resolves an engine name against an EngineConfig
	// (worker count, memory budget, spill directory, variant restrictions).
	ResolveEngineFor = core.EngineFor
)

// EngineConfig is the unified engine-configuration surface (exec.Config):
// every exec-engine knob in one struct, consumed by ResolveEngineFor and
// exec.NewSpec.
type EngineConfig = exec.Config

// EngineSpec describes a physical execution engine for the stratum.
type EngineSpec = eval.EngineSpec

// ParseQuery parses a temporal SQL statement without planning it.
func ParseQuery(sql string) (*Query, error) { return tsql.Parse(sql) }

// CheckEquivalence reports whether two relations are equivalent under the
// given type (Section 3).
func CheckEquivalence(t EquivalenceType, a, b *Relation) (bool, error) {
	return equiv.Check(t, a, b)
}

// EquivalencesHolding returns every equivalence type that holds between two
// relations.
func EquivalencesHolding(a, b *Relation) []EquivalenceType {
	return equiv.Holding(a, b)
}

// Evaluate runs a plan with the reference evaluator over the catalog,
// bypassing the layered architecture (transfers are identities).
func Evaluate(cat *Catalog, plan Node) (*Relation, error) {
	return eval.New(cat).Eval(plan)
}

// RenderPlan renders a plan as an indented operator tree (Figure 2 style).
func RenderPlan(plan Node) string { return algebra.Render(plan, nil) }

// Schema construction helpers.
var (
	// NewSchema builds a schema from attributes.
	NewSchema = schema.New
	// MustSchema is NewSchema panicking on error.
	MustSchema = schema.MustNew
	// Attr builds an attribute.
	Attr = schema.Attr
)

// Attribute domains.
const (
	KindInt    = value.KindInt
	KindFloat  = value.KindFloat
	KindString = value.KindString
	KindBool   = value.KindBool
	KindTime   = value.KindTime
)

// RelationFromRows builds a relation from untyped rows; it panics on
// domain mismatches (intended for tests, examples and fixtures).
var RelationFromRows = relation.MustFromRows

// NowMarker is the sentinel chronon denoting "until NOW" in NOW-relative
// temporal relations (an extension of the paper's Section 7 future work);
// bind such relations to a reference instant with Relation.BindNow before
// querying.
const NowMarker = period.NowMarker

// Asc and Desc build order keys.
var (
	Asc  = relation.Key
	Desc = relation.KeyDesc
)

// SyntheticEmployeeDB builds a scaled Figure 1-shaped database for
// benchmarking; see datagen.EmployeeSpec.
var SyntheticEmployeeDB = datagen.EmployeeDB

// EmployeeSpec parameterizes SyntheticEmployeeDB.
type EmployeeSpec = datagen.EmployeeSpec
