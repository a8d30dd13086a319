package main

import (
	"context"
	"testing"
	"time"

	"tqp/internal/server"
)

// TestBuildConfig pins the flag→Config resolution, including the -mem
// parse and the -db error path.
func TestBuildConfig(t *testing.T) {
	cfg, err := buildConfig("127.0.0.1:0", "paper", "", 0, "exec", 4, 8,
		time.Second, 4, "64M", 32, "/tmp/spill", 7, 3*time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.MemoryBudget != 64<<20 || cfg.MaxConcurrent != 4 || cfg.Seed != 7 || cfg.CacheSize != 32 {
		t.Fatalf("config: %+v", cfg)
	}
	if cfg.Catalog == nil || len(cfg.Catalog.Names()) == 0 {
		t.Fatal("paper catalog must resolve")
	}
	if _, err := buildConfig("x", "mystery", "", 0, "exec", 0, 0, 0, 0, "", 0, "", 1, 0, ""); err == nil {
		t.Fatal("unknown database must be rejected")
	}
	if _, err := buildConfig("x", "paper", "", 0, "exec", 0, 0, 0, 0, "not-bytes", 0, "", 1, 0, ""); err == nil {
		t.Fatal("bad -mem must be rejected")
	}
	// The synth catalog resolves and a server starts over it end to end.
	cfg, err = buildConfig("127.0.0.1:0", "synth", "", 10, "exec", 2, 0,
		time.Second, 2, "", 8, "", 1, time.Second, "")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := server.Dial(context.Background(), srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	r, _, err := cl.Query(context.Background(), "SELECT DISTINCT EmpName FROM EMPLOYEE ORDER BY EmpName")
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() == 0 {
		t.Fatal("synth catalog query returned nothing")
	}
	// An invalid default engine fails at Start, not at first query.
	cfg.Engine = "bogus"
	if _, err := server.Start(cfg); err == nil {
		t.Fatal("invalid default engine must fail Start")
	}
}

// TestBuildConfigShard pins the -shard i/n resolution: the catalog shrinks
// to one slice, the slice positions ride along, and the two slices of a
// 2-way split partition every relation.
func TestBuildConfigShard(t *testing.T) {
	whole, err := buildConfig("127.0.0.1:0", "synth", "", 10, "exec", 0, 0, 0, 0, "", 0, "", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for i := 0; i < 2; i++ {
		cfg, err := buildConfig("127.0.0.1:0", "synth", "", 10, "exec", 0, 0, 0, 0, "", 0, "", 1, 0,
			// Both spellings of the same slice must agree.
			[]string{"0/2", "1/2"}[i])
		if err != nil {
			t.Fatal(err)
		}
		if cfg.ShardPositions == nil {
			t.Fatal("-shard must populate ShardPositions")
		}
		r, err := cfg.Catalog.Resolve("EMPLOYEE")
		if err != nil {
			t.Fatal(err)
		}
		if len(cfg.ShardPositions["EMPLOYEE"]) != r.Len() {
			t.Fatalf("positions (%d) must parallel the slice (%d)", len(cfg.ShardPositions["EMPLOYEE"]), r.Len())
		}
		total += r.Len()
	}
	rw, err := whole.Catalog.Resolve("EMPLOYEE")
	if err != nil {
		t.Fatal(err)
	}
	if total != rw.Len() {
		t.Fatalf("slices hold %d EMPLOYEE rows, whole database has %d", total, rw.Len())
	}
	for _, bad := range []string{"2/2", "-1/2", "0/0", "x/y", "1"} {
		if _, err := buildConfig("x", "paper", "", 0, "exec", 0, 0, 0, 0, "", 0, "", 1, 0, bad); err == nil {
			t.Fatalf("bad -shard %q must be rejected", bad)
		}
	}
}
