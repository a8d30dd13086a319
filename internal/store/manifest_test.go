package store_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tqp/internal/algebra"
	"tqp/internal/relation"
	"tqp/internal/schema"
	"tqp/internal/store"
	"tqp/internal/value"
)

// rewrap seals a manifest payload under a valid header — magic, CRC-32C
// and length — so that what a test or the fuzzer changed reaches the JSON
// decoder and the segment list instead of failing the checksum.
func rewrap(payload []byte) []byte {
	sum := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	return append([]byte(fmt.Sprintf("tqp-store-v1 %08x %d\n", sum, len(payload))), payload...)
}

// manifestPayload returns the committed manifest's JSON payload.
func manifestPayload(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	_, payload, ok := strings.Cut(string(data), "\n")
	if !ok {
		t.Fatal("manifest has no header line")
	}
	return []byte(payload)
}

// seedStore commits a temporal relation of two segments and a snapshot
// relation of one in dir.
func seedStore(t testing.TB, dir string) {
	t.Helper()
	s, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snap := schema.MustNew(schema.Attr("K", value.KindInt), schema.Attr("F", value.KindFloat))
	rows := func(sch *schema.Schema, rows [][]any) []relation.Tuple {
		return relation.MustFromRows(sch, rows).Tuples()
	}
	for _, step := range []error{
		s.Create("R", tempSchema(), algebra.BaseInfo{Distinct: true}),
		s.Append("R", rows(tempSchema(), [][]any{{"a", 1, 5}, {"b", 2, 6}, {"c", 3, 7}})),
		s.Append("R", rows(tempSchema(), [][]any{{"d", 10, 20}})),
		s.Create("S", snap, algebra.BaseInfo{}),
		s.Append("S", rows(snap, [][]any{{1, 1.5}, {2, 2.5}})),
	} {
		if step != nil {
			t.Fatal(step)
		}
	}
}

// editSegment rewrites the first segment of the first relation in a
// manifest payload through edit.
func editSegment(t *testing.T, payload []byte, edit func(seg map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	seg := m["relations"].([]any)[0].(map[string]any)["segments"].([]any)[0].(map[string]any)
	edit(seg)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestManifestRejectsHostileSegments: a committed manifest whose checksum
// holds but whose segment list does not — a negative row count, a file
// name that is a path out of the store directory — is corruption at Open,
// never a panic in Load nor a file opened (or, by Compact, removed) outside
// the store.
func TestManifestRejectsHostileSegments(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(seg map[string]any)
	}{
		{"negative rows", func(seg map[string]any) { seg["rows"] = -5 }},
		{"rows past the bytes", func(seg map[string]any) { seg["rows"] = seg["bytes"].(float64) + 1 }},
		{"path out of the store", func(seg map[string]any) { seg["file"] = "../victim.seg" }},
		{"absolute path", func(seg map[string]any) { seg["file"] = "/victim.seg" }},
		{"not a segment name", func(seg map[string]any) { seg["file"] = "MANIFEST" }},
	} {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			dir := filepath.Join(root, "store")
			seedStore(t, dir)
			// The victim is a byte-exact copy of the segment, so a store
			// that followed the path would find the size it expects.
			seg, err := os.ReadFile(filepath.Join(dir, "seg-000000.seg"))
			if err != nil {
				t.Fatal(err)
			}
			victim := filepath.Join(root, "victim.seg")
			if err := os.WriteFile(victim, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			payload := editSegment(t, manifestPayload(t, dir), c.edit)
			if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), rewrap(payload), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := store.Open(dir)
			if !errors.Is(err, store.ErrCorrupt) {
				if err == nil {
					_, err = s.Load("R")
				}
				t.Fatalf("Open accepted the hostile manifest (Load: %v)", err)
			}
			if _, err := os.Stat(victim); err != nil {
				t.Fatalf("the file outside the store is gone: %v", err)
			}
		})
	}
}

// FuzzManifest drives Open with arbitrary manifest payloads, each re-wrapped
// under a valid header so that mutations reach the JSON and the segment
// list, over the segment files of a real store. Open plus Load of every
// relation returns nil or an error wrapping ErrCorrupt — never a panic.
func FuzzManifest(f *testing.F) {
	seedDir := f.TempDir()
	seedStore(f, seedDir)
	f.Add(manifestPayload(f, seedDir))
	f.Add([]byte(`{"magic":"tqp-store-v1","relations":[{"name":"R","attrs":[{"name":"K","kind":"int"}],"segments":[{"file":"seg-000000.seg","rows":-5,"bytes":40}]}]}`))
	f.Add([]byte(`{"magic":"tqp-store-v1","relations":[{"name":"R","attrs":[{"name":"K","kind":"int"}],"segments":[{"file":"../seg-000000.seg","rows":1,"bytes":40}]}]}`))
	segs, err := filepath.Glob(filepath.Join(seedDir, "seg-*.seg"))
	if err != nil || len(segs) == 0 {
		f.Fatalf("no seed segments (%v)", err)
	}
	files := make(map[string][]byte, len(segs))
	for _, p := range segs {
		if files[filepath.Base(p)], err = os.ReadFile(p); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), rewrap(payload), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := store.Open(dir)
		if err != nil {
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Open failed untyped: %v", err)
			}
			return
		}
		for _, name := range s.Relations() {
			if _, err := s.Load(name); err != nil && !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("Load(%q) failed untyped: %v", name, err)
			}
		}
	})
}
