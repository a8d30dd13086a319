package server

import (
	"encoding/json"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/catalog"
	"tqp/internal/exec"
	"tqp/internal/schema"
	"tqp/internal/value"
)

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

// fuzzCols derives a column-major payload from raw fuzz text: columns split
// on '|', cells split on ','. Raggedness, arity mismatches and kind-confused
// cells all arise naturally from the fuzzer mutating the text.
func fuzzCols(payload string) [][]string {
	if payload == "" {
		return nil
	}
	var cols [][]string
	for _, col := range strings.Split(payload, "|") {
		if col == "" {
			cols = append(cols, nil)
			continue
		}
		cols = append(cols, strings.Split(col, ","))
	}
	return cols
}

// transpose converts a rectangular column-major payload to row-major;
// ok=false when the payload is ragged (no row-major equivalent exists).
func transpose(cols [][]string) (rows [][]string, ok bool) {
	if len(cols) == 0 {
		return nil, true
	}
	n := len(cols[0])
	for _, c := range cols {
		if len(c) != n {
			return nil, false
		}
	}
	rows = make([][]string, n)
	for i := range rows {
		row := make([]string, len(cols))
		for j := range cols {
			row[j] = cols[j][i]
		}
		rows[i] = row
	}
	return rows, true
}

// FuzzDecodeCols drives the column-major frame decoder with arbitrary
// payloads from a hostile peer. Invariants: never panic; reject every
// ragged payload; agree exactly — same acceptance, same tuples — with the
// row-major decoder on rectangular payloads; and never produce a value
// whose kind differs from the schema's (silent kind corruption).
func FuzzDecodeCols(f *testing.F) {
	f.Add([]byte{0, 1}, "1,2|1.5,x")
	f.Add([]byte{0}, "9223372036854775807|2")
	f.Add([]byte{3, 3}, "t,f|t")
	f.Add([]byte{1}, "NaN,Inf,-0")
	f.Add([]byte{}, "")
	f.Add([]byte{}, "|")
	f.Add([]byte{2, 4}, "a,b,c|1,2")
	f.Fuzz(func(t *testing.T, kindBytes []byte, payload string) {
		s := fuzzSchema(t, kindBytes)
		cols := fuzzCols(payload)

		got, err := decodeCols(s, cols)

		rows, rect := transpose(cols)
		if !rect {
			if err == nil {
				t.Fatalf("ragged payload %q decoded without error", payload)
			}
			return
		}
		want, rowErr := decodeRows(s, rows)
		if (err == nil) != (rowErr == nil) {
			// Transposing an all-empty-columns payload loses the column
			// count, so decodeRows sees an empty frame it cannot object to;
			// decodeCols rejecting the extra columns there is correct
			// strictness, not a disagreement.
			if !(err != nil && len(rows) == 0) {
				t.Fatalf("decoders disagree on acceptance of %q: cols err=%v, rows err=%v", payload, err, rowErr)
			}
			return
		}
		if err != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("decoders disagree on row count for %q: cols %d, rows %d", payload, len(got), len(want))
		}
		for i := range got {
			if len(got[i]) != s.Len() {
				t.Fatalf("tuple %d has arity %d, schema %s", i, len(got[i]), s)
			}
			if !got[i].Equal(want[i]) {
				t.Fatalf("decoders disagree on row %d of %q: cols %v, rows %v", i, payload, got[i], want[i])
			}
			for j, v := range got[i] {
				if v.Kind() != s.At(j).Kind {
					t.Fatalf("row %d col %d decoded to kind %v, schema wants %v", i, j, v.Kind(), s.At(j).Kind)
				}
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
		back, err := DecodePlan(again)
		if err != nil || !back.Equal(plan) {
			t.Fatalf("re-encoded plan %s does not decode to itself: %v", algebra.Canonical(plan), err)
		}
		// A decoded plan may not fit the catalog; only a panic fails.
		_, _, _ = exec.RunFragment(plan, cat, nil)
	})
}
