package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/expr"
	"tqp/internal/period"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/value"
)

// TestFrameRoundTrip pins the frame layout: 4-byte big-endian length, JSON
// payload, EOF on clean hangup, errors on truncation and oversize claims.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := Request{Op: OpQuery, SQL: "SELECT EmpName FROM EMPLOYEE"}
	if err := WriteFrame(&buf, &want); err != nil {
		t.Fatal(err)
	}
	if n := binary.BigEndian.Uint32(buf.Bytes()[:4]); int(n) != buf.Len()-4 {
		t.Fatalf("header says %d bytes, payload is %d", n, buf.Len()-4)
	}
	var got Request
	if err := ReadFrame(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: got %+v want %+v", got, want)
	}
	// Clean hangup: plain EOF.
	if err := ReadFrame(&buf, &got); err != io.EOF {
		t.Fatalf("empty stream: want io.EOF, got %v", err)
	}
	// Truncated payload: loud error, not EOF.
	var trunc bytes.Buffer
	if err := WriteFrame(&trunc, &want); err != nil {
		t.Fatal(err)
	}
	half := bytes.NewReader(trunc.Bytes()[:trunc.Len()-3])
	if err := ReadFrame(half, &got); err == nil || err == io.EOF {
		t.Fatalf("truncated frame: want a loud error, got %v", err)
	}
	// Oversize claim: rejected before allocation.
	var huge bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	huge.Write(hdr[:])
	if err := ReadFrame(&huge, &got); err == nil || !strings.Contains(err.Error(), "limit") {
		t.Fatalf("oversize frame: want a limit error, got %v", err)
	}
}

// TestValueCodec round-trips every kind of literal through the fragment
// wire codec (EncodePlan → JSON → DecodePlan), including the values JSON
// numbers would corrupt (int64 extremes, the NOW marker chronon) and float
// specials, whose kind and bits must survive exactly.
func TestValueCodec(t *testing.T) {
	vals := []value.Value{
		value.Int(0), value.Int(-7), value.Int(math.MaxInt64), value.Int(math.MinInt64),
		value.Float(0), value.Float(math.Copysign(0, -1)), value.Float(-2.5), value.Float(1e300),
		value.Float(math.Pi), value.Float(math.NaN()), value.Float(math.Inf(1)),
		value.String_(""), value.String_("it's quoted; with, commas"), value.String_("Anna"),
		value.Bool(true), value.Bool(false),
		value.Time(0), value.Time(42), value.Time(period.NowMarker),
	}
	for _, v := range vals {
		plan := algebra.NewSelect(expr.Compare(expr.Eq, expr.Column("X"), expr.Literal(v)),
			algebra.NewRel("R", nil, algebra.BaseInfo{}))
		wire, err := EncodePlan(plan)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var back WirePlan
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		decoded, err := DecodePlan(&back)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		got := decoded.(*algebra.Select).P.(expr.Cmp).R.(expr.Lit).Val
		if got.Kind() != v.Kind() || !got.Equal(v) {
			t.Fatalf("round trip: got %v (%s) want %v (%s)", got, got.Kind(), v, v.Kind())
		}
		if v.Kind() == value.KindFloat && math.Float64bits(got.AsFloat()) != math.Float64bits(v.AsFloat()) {
			t.Fatalf("round trip changed the bits of %v: %x vs %x", v, math.Float64bits(got.AsFloat()), math.Float64bits(v.AsFloat()))
		}
	}
	// A literal the dialect cannot read is refused, not defaulted.
	for _, bad := range []*WireExpr{
		{Node: "lit", Kind: "int", Val: "not-a-number"},
		{Node: "lit", Kind: "bool", Val: "yes"},
		{Node: "lit", Kind: "time", Val: "1.5"},
	} {
		w := &WirePlan{Op: "select", Pred: &WirePred{Node: "cmp", Op: "=", LX: &WireExpr{Node: "col", Name: "X"}, RX: bad},
			In: []*WirePlan{{Op: "rel", Rel: "R"}}}
		if _, err := DecodePlan(w); err == nil {
			t.Fatalf("literal %+v must not decode", bad)
		}
	}
}

// TestRelationCodec streams a relation — schema, rows with duplicates,
// order — through the server's frames into a client and reconstructs it
// bit-identically.
func TestRelationCodec(t *testing.T) {
	sch := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("N", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	rel := relation.MustFromRows(sch, [][]any{
		{"Anna", 1, 2, 6},
		{"John", 2, 1, 8},
		{"John", 2, 1, 8}, // duplicates are significant
	})
	spec := relation.OrderSpec{relation.Key("Name"), relation.KeyDesc("N")}
	rel.SetOrder(spec)

	sch2, err := schemaOf(colsOf(sch))
	if err != nil {
		t.Fatal(err)
	}
	if !sch2.Equal(sch) {
		t.Fatalf("schema round trip: %s vs %s", sch2, sch)
	}
	for _, batch := range []int{1, 2, 256} {
		c := fakePeer(t, func(br *bufio.Reader, bw *bufio.Writer) {
			readRequest(t, br)
			if err := StreamResult(bw, rel, batch, &Done{Tuples: rel.Len()}); err != nil {
				t.Errorf("streaming: %v", err)
			}
		})
		got, _, err := c.Query(context.Background(), "SELECT * FROM R")
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if !got.Schema().Equal(sch) || !got.EqualAsList(rel) {
			t.Fatalf("batch %d: rows round trip:\n%s\nvs\n%s", batch, got, rel)
		}
		if !got.Order().Equal(spec) {
			t.Fatalf("batch %d: order round trip: %s vs %s", batch, got.Order(), spec)
		}
	}
}

// TestColumnarRowsCodec pins the rows frames the server streams: each
// carries one columnar spill block holding exactly its window of the
// result, with the fragment's sequence keys when the result is keyed and
// zero keys otherwise, and a block decoded against the wrong schema or cut
// short is refused.
func TestColumnarRowsCodec(t *testing.T) {
	sch := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("N", value.KindInt),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	rel := relation.MustFromRows(sch, [][]any{
		{"Anna", 1, 2, 6},
		{"it's", int64(1) << 62, 1, 8},
		{"John", 2, 1, int64(period.NowMarker)},
	})
	for _, keys := range [][]int{nil, {40, 7, 1 << 40}} {
		var buf bytes.Buffer
		if err := streamResult(&buf, rel, keys, 2, &Done{Tuples: rel.Len()}); err != nil {
			t.Fatal(err)
		}
		var frames []Response
		for {
			var f Response
			if err := ReadFrame(&buf, &f); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		if len(frames) != 4 || frames[0].Kind != KindSchema || frames[3].Kind != KindDone {
			t.Fatalf("keys %v: want schema, 2 rows frames, done; got %d frames", keys, len(frames))
		}
		if frames[0].Keyed != (keys != nil) {
			t.Fatalf("keys %v: schema frame says keyed=%v", keys, frames[0].Keyed)
		}
		// Each rows frame is one block holding exactly its window.
		for i, win := range [][2]int{{0, 2}, {2, 3}} {
			got, gotKeys, err := blockTuples(frames[1+i].Block, sch, []int{})
			if err != nil {
				t.Fatalf("keys %v frame %d: %v", keys, i, err)
			}
			want := rel.Tuples()[win[0]:win[1]]
			if len(got) != len(want) {
				t.Fatalf("keys %v frame %d: %d rows, want %d", keys, i, len(got), len(want))
			}
			for r := range got {
				if !got[r].Equal(want[r]) {
					t.Fatalf("keys %v frame %d row %d: %s vs %s", keys, i, r, got[r], want[r])
				}
				wantKey := 0
				if keys != nil {
					wantKey = keys[win[0]+r]
				}
				if gotKeys[r] != wantKey {
					t.Fatalf("keys %v frame %d row %d: key %d, want %d", keys, i, r, gotKeys[r], wantKey)
				}
			}
		}
	}
	// Error paths: a block decoded against another schema, or cut short, is
	// loud.
	block := blockOf([]int{0, 1, 2}, rel.Tuples()...)
	short := schema.MustNew(schema.Attr("Name", value.KindString), schema.Attr("N", value.KindInt))
	if _, _, err := blockTuples(block, short, nil); err == nil {
		t.Fatal("a block of another arity must not decode")
	}
	confused := schema.MustNew(
		schema.Attr("Name", value.KindString),
		schema.Attr("N", value.KindFloat),
		schema.Attr(schema.T1, value.KindTime),
		schema.Attr(schema.T2, value.KindTime),
	)
	if _, _, err := blockTuples(block, confused, nil); err == nil {
		t.Fatal("a column of another kind must not decode")
	}
	if _, _, err := blockTuples(block[:len(block)-1], sch, nil); err == nil {
		t.Fatal("a truncated block must not decode")
	}
}

// TestNormalizeSQL pins the cache normal form: whitespace collapses outside
// string literals, never inside them.
func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT EmpName FROM EMPLOYEE", "SELECT EmpName FROM EMPLOYEE"},
		{"  SELECT\tEmpName \n FROM   EMPLOYEE ; ", "SELECT EmpName FROM EMPLOYEE"},
		{"SELECT EmpName FROM EMPLOYEE;", "SELECT EmpName FROM EMPLOYEE"},
		{"SELECT 'a  b' FROM R", "SELECT 'a  b' FROM R"},
		{"SELECT  'a  b'  FROM R", "SELECT 'a  b' FROM R"},
		{"SELECT X FROM R WHERE N = 'it''s  two  spaces'", "SELECT X FROM R WHERE N = 'it''s  two  spaces'"},
	}
	for _, c := range cases {
		if got := NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// Text variants of one statement share one cache key; different
	// literals do not.
	a := PlanKey("fp", "exec", "SELECT EmpName  FROM EMPLOYEE")
	b := PlanKey("fp", "exec", "SELECT EmpName FROM EMPLOYEE;")
	if a != b {
		t.Fatal("whitespace variants must share a cache key")
	}
	if PlanKey("fp", "exec", "SELECT 'a' FROM R") == PlanKey("fp", "exec", "SELECT 'b' FROM R") {
		t.Fatal("distinct literals must not share a cache key")
	}
	// The doubled-quote escape is literal text, not a terminator: 'a''b'
	// denotes a'b, which differs from 'ab' — and whitespace after the
	// escape is still inside the literal, so it must neither collapse nor
	// let two spacing variants collide on one key.
	if PlanKey("fp", "exec", "SELECT 'a''b' FROM R") == PlanKey("fp", "exec", "SELECT 'ab' FROM R") {
		t.Fatal("escaped-quote literal must not share a cache key with its unescaped lookalike")
	}
	if PlanKey("fp", "exec", "SELECT 'x''  y' FROM R") == PlanKey("fp", "exec", "SELECT 'x'' y' FROM R") {
		t.Fatal("literals differing in whitespace after an escaped quote must not share a cache key")
	}
	if PlanKey("fp", "exec", "SELECT EmpName FROM EMPLOYEE") == PlanKey("fp", "reference", "SELECT EmpName FROM EMPLOYEE") {
		t.Fatal("distinct engines must not share a cache key")
	}
}

// TestParseSet pins the in-band SET statement forms.
func TestParseSet(t *testing.T) {
	for _, c := range []struct {
		in, name, val string
		isSet, bad    bool
	}{
		{"SET engine exec", "engine", "exec", true, false},
		{"set ENGINE = reference;", "engine", "reference", true, false},
		{"  SET parallel=4  ", "parallel", "4", true, false},
		{"SET mem 64K", "mem", "64K", true, false},
		{"SELECT EmpName FROM EMPLOYEE", "", "", false, false},
		{"", "", "", false, false},
		{"SET", "", "", true, true},
		{"SET engine", "", "", true, true},
		{"SET engine exec extra", "", "", true, true},
	} {
		name, val, isSet, err := ParseSet(c.in)
		if isSet != c.isSet {
			t.Errorf("ParseSet(%q): isSet=%v want %v", c.in, isSet, c.isSet)
			continue
		}
		if c.bad {
			if err == nil {
				t.Errorf("ParseSet(%q): want error", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSet(%q): %v", c.in, err)
			continue
		}
		if isSet && (name != c.name || val != c.val) {
			t.Errorf("ParseSet(%q) = %q,%q want %q,%q", c.in, name, val, c.name, c.val)
		}
	}
}
