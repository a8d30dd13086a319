package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/column"
	"tqp/internal/exec"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/spill"
	"tqp/internal/value"
)

// blockOf encodes same-arity rows of any kinds as one block, the way a peer
// would: the rows ride boxed planes, which encode exactly as typed planes of
// their kinds.
func blockOf(seqs []int, rows ...relation.Tuple) []byte {
	arity := 0
	if len(rows) > 0 {
		arity = len(rows[0])
	}
	b := &column.Batch{Cols: make([]column.Vec, arity), N: len(rows)}
	for c := range b.Cols {
		b.Cols[c] = column.NewVec(value.KindInvalid, len(rows))
		for _, t := range rows {
			b.Cols[c].Append(t[c])
		}
	}
	return spill.EncodeBlock(nil, seqs, b, 0)
}

// rowsOf reads a batch's presented rows as tuples.
func rowsOf(b *column.Batch) []relation.Tuple {
	out := make([]relation.Tuple, b.Rows())
	for k := range out {
		out[k] = make(relation.Tuple, len(b.Cols))
		b.FillRow(out[k], b.RowIndex(k))
	}
	return out
}

// blockTuples decodes a block sequence against sch into tuples, collecting
// keys unless keys is nil.
func blockTuples(data []byte, sch *schema.Schema, keys []int) ([]relation.Tuple, []int, error) {
	b := column.NewBatch(sch, 0)
	keys, err := spill.DecodeBlocks(bytes.NewReader(data), b, keys)
	return rowsOf(b), keys, err
}

// fuzzKinds maps a byte to an attribute kind for fuzz-built schemas.
var fuzzKinds = []value.Kind{
	value.KindInt, value.KindFloat, value.KindString, value.KindBool, value.KindTime,
}

// fuzzSchema derives a schema from kindBytes: one attribute per byte, kind
// chosen by the byte's value. Reserved time-attribute names are avoided so
// the schema is always constructible; zero bytes give a zero-arity schema,
// which the wire codec must also survive.
func fuzzSchema(t *testing.T, kindBytes []byte) *schema.Schema {
	t.Helper()
	if len(kindBytes) > 12 {
		kindBytes = kindBytes[:12]
	}
	attrs := make([]schema.Attribute, len(kindBytes))
	for i, b := range kindBytes {
		attrs[i] = schema.Attr("C"+string(rune('A'+i)), fuzzKinds[int(b)%len(fuzzKinds)])
	}
	s, err := schema.New(attrs...)
	if err != nil {
		t.Skip("unconstructible schema")
	}
	return s
}

// FuzzDecodeCols drives the client's rows-frame decoder — one columnar
// spill block checked against the schema frame's columns — with arbitrary
// block bytes from a hostile peer. Invariants: never panic; every failure
// is a typed proto error; every decoded value has its schema column's kind
// (no silent kind corruption); and decode∘encode∘decode is stable — the
// decoded rows and keys re-encode to a block that decodes to themselves.
func FuzzDecodeCols(f *testing.F) {
	block := blockOf
	f.Add([]byte{0, 1}, block([]int{0, 1}, relation.Tuple{value.Int(1), value.Float(1.5)}, relation.Tuple{value.Int(2), value.Float(2.5)}))
	f.Add([]byte{0}, block([]int{9}, relation.Tuple{value.Int(math.MaxInt64)}))
	f.Add([]byte{3, 3}, block([]int{0}, relation.Tuple{value.Bool(true), value.Bool(false)}))
	f.Add([]byte{1}, block([]int{0, 1, 2}, relation.Tuple{value.Float(math.NaN())}, relation.Tuple{value.Float(math.Inf(1))}, relation.Tuple{value.Float(math.Copysign(0, -1))}))
	f.Add([]byte{}, block([]int{0, 0}, relation.Tuple{}, relation.Tuple{}))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{2, 4}, block([]int{1 << 40, 3}, relation.Tuple{value.String_("a"), value.Time(period.NowMarker)}, relation.Tuple{value.Int(1), value.Time(2)}))
	// Homogeneous int, time and string columns decode straight onto their
	// typed planes.
	f.Add([]byte{0, 4, 2}, block([]int{3, 1, 2},
		relation.Tuple{value.Int(-7), value.Time(0), value.String_("Anna")},
		relation.Tuple{value.Int(math.MinInt64), value.Time(period.NowMarker), value.String_("")},
		relation.Tuple{value.Int(1 << 40), value.Time(-3), value.String_("ünï")}))
	f.Add([]byte{2, 2, 4, 4}, block([]int{0}, relation.Tuple{value.String_("x"), value.String_("yz"), value.Time(1), value.Time(5)}))
	f.Fuzz(func(t *testing.T, kindBytes []byte, payload []byte) {
		s := fuzzSchema(t, kindBytes)
		b := column.NewBatch(s, 0)
		keys, err := decodeBlockFrame(&Response{Kind: KindRows, Block: payload}, b, []int{})
		got := rowsOf(b)
		if err != nil {
			var se *ServerError
			if !errors.As(err, &se) || se.Code != CodeProto {
				t.Fatalf("untyped decode failure: %v", err)
			}
			return
		}
		if len(got) == 0 || len(keys) != len(got) {
			t.Fatalf("decoded %d rows with %d keys", len(got), len(keys))
		}
		for i, tp := range got {
			if len(tp) != s.Len() {
				t.Fatalf("tuple %d has arity %d, schema %s", i, len(tp), s)
			}
			for j, v := range tp {
				if v.Kind() != s.At(j).Kind {
					t.Fatalf("row %d col %d decoded to kind %v, schema wants %v", i, j, v.Kind(), s.At(j).Kind)
				}
			}
		}
		back := column.NewBatch(s, 0)
		againKeys, err := decodeBlockFrame(&Response{Kind: KindRows, Block: spill.EncodeBlock(nil, keys, b, 0)}, back, []int{})
		again := rowsOf(back)
		if err != nil {
			t.Fatalf("re-encoded rows do not decode: %v", err)
		}
		if len(again) != len(got) {
			t.Fatalf("re-decode kept %d of %d rows", len(again), len(got))
		}
		for i := range got {
			if !again[i].Equal(got[i]) || againKeys[i] != keys[i] {
				t.Fatalf("row %d: re-decoded %v key %d, first decode %v key %d", i, again[i], againKeys[i], got[i], keys[i])
			}
		}
	})
}

// FuzzDecodePlan drives the fragment decoder and the shard runner with
// arbitrary partial-plan payloads from a hostile peer. Invariants: decoding
// either fails or yields a plan that re-encodes to the same wire form, and
// running a decoded plan on a shard returns a result or an error — never a
// panic.
func FuzzDecodePlan(f *testing.F) {
	f.Add(`{"op":"rel","rel":"EMPLOYEE"}`)
	f.Add(`{"op":"sort","keys":[{"attr":"EmpName"}],"in":[{"op":"select","pred":{"node":"cmp","op":"=","lx":{"node":"col","name":"Dept"},"rx":{"node":"lit","kind":"string","val":"Ship"}},"in":[{"op":"rel","rel":"EMPLOYEE"}]}]}`)
	f.Add(`{"op":"coalT","in":[{"op":"project","items":[{"expr":{"node":"col","name":"EmpName"},"as":"EmpName"},{"expr":{"node":"col","name":"T1"},"as":"T1"},{"expr":{"node":"col","name":"T2"},"as":"T2"}],"in":[{"op":"rel","rel":"EMPLOYEE"}]}]}`)
	f.Add(`{"op":"aggr","group_by":["Dept"],"aggs":[{"func":"COUNT(*)","as":"n"},{"func":"SUM","arg":"T1","as":"s"}],"in":[{"op":"rel","rel":"EMPLOYEE"}]}`)
	f.Add(`{"op":"rdupT","in":[{"op":"select","pred":{"node":"period","op":"OVERLAPS","args":[{"node":"col","name":"T1"},{"node":"col","name":"T2"},{"node":"lit","kind":"int","val":"3"},{"node":"arith","op":"+","l":{"node":"col","name":"T1"},"r":{"node":"lit","kind":"int","val":"1"}}]},"in":[{"op":"rel","rel":"PROJECT"}]}]}`)
	f.Add(`{"op":"select","in":[{"op":"rel","rel":"NOPE"}]}`)
	// A grouped region's \ᵀ: one input, a relation the shard does not hold,
	// and the paper statement's valid two-leaf fragment.
	empT := `{"op":"project","items":[{"expr":{"node":"col","name":"EmpName"},"as":"EmpName"},{"expr":{"node":"col","name":"T1"},"as":"T1"},{"expr":{"node":"col","name":"T2"},"as":"T2"}],"in":[{"op":"rel","rel":"EMPLOYEE"}]}`
	f.Add(`{"op":"diffT","in":[` + empT + `]}`)
	f.Add(`{"op":"diffT","in":[` + empT + `,{"op":"rel","rel":"NOPE"}]}`)
	f.Add(`{"op":"diffT","in":[{"op":"coalT","in":[{"op":"rdupT","in":[{"op":"sort","keys":[{"attr":"EmpName"}],"in":[` + empT + `]}]}]},` +
		`{"op":"project","items":[{"expr":{"node":"col","name":"EmpName"},"as":"EmpName"},{"expr":{"node":"col","name":"T1"},"as":"T1"},{"expr":{"node":"col","name":"T2"},"as":"T2"}],"in":[{"op":"rel","rel":"PROJECT"}]}]}`)
	cat := catalog.Paper()
	f.Fuzz(func(t *testing.T, payload string) {
		var w WirePlan
		if json.Unmarshal([]byte(payload), &w) != nil {
			return
		}
		plan, err := DecodePlan(&w)
		if err != nil {
			return
		}
		again, err := EncodePlan(plan)
		if err != nil {
			t.Fatalf("decoded plan %s does not re-encode: %v", algebra.Canonical(plan), err)
		}
		// Canonical text renders literals of different kinds alike; the
		// second encoding carries each literal's kind.
		back, err := DecodePlan(again)
		if err != nil || algebra.Canonical(back) != algebra.Canonical(plan) {
			t.Fatalf("re-encoded plan %s does not decode to itself: %v", algebra.Canonical(plan), err)
		}
		if twice, err := EncodePlan(back); err != nil || !reflect.DeepEqual(twice, again) {
			t.Fatalf("re-encoded plan %s does not encode to itself: %v", algebra.Canonical(plan), err)
		}
		// A decoded plan may not fit the catalog; only a panic fails.
		_, _, _ = exec.RunFragment(plan, cat, nil)
	})
}
