package server

import (
	"fmt"
	"strconv"

	"tqp/internal/core"
	"tqp/internal/eval"
	"tqp/internal/exec"
)

// session is one connection's engine settings. Each setting is adjustable
// mid-session (the protocol's set operation, or an in-band SET statement),
// and every change re-derives the effective engine spec against the
// server's static resource shares, so the spec — and with it the plan-cache
// key — stays deterministic regardless of the server's current load.
type session struct {
	grant Grant  // the server's static per-query resource share
	spill string // the server's spill directory ("" = system temp)

	// The requested settings; zero values mean "server default".
	engine   string // "reference", "exec" or "parallel"
	parallel int    // requested workers (capped at grant.Workers)
	mem      int64  // requested budget bytes (capped at grant.Memory)

	spec eval.EngineSpec // the derived effective spec

	// block is the connection's rows-frame encode buffer: each answer
	// encodes its blocks into it, and it keeps the largest block's
	// capacity for the next answer.
	block []byte
}

// newSession returns a session at the server's defaults.
func newSession(engine string, grant Grant, spill string) (*session, error) {
	s := &session{grant: grant, spill: spill, engine: engine}
	if err := s.rebuild(); err != nil {
		return nil, err
	}
	return s, nil
}

// set updates one setting. The names mirror the CLIs' flags: engine
// ("reference", "exec", "parallel"), parallel (a worker count), mem (a byte
// count, e.g. 64K, 16M; 0 restores the server's share).
func (s *session) set(name, val string) error {
	old := *s
	switch name {
	case "engine":
		s.engine = val
	case "parallel":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("server: bad parallel %q (want a worker count)", val)
		}
		s.parallel = n
	case "mem":
		b, err := core.ParseBytes(val)
		if err != nil {
			return err
		}
		s.mem = b
	default:
		return fmt.Errorf("server: unknown session setting %q (want engine, parallel or mem)", name)
	}
	if err := s.rebuild(); err != nil {
		*s = old // an invalid combination leaves the session untouched
		return err
	}
	return nil
}

// rebuild derives the effective engine spec from the requested settings and
// the server's per-query shares. The requested worker count and budget are
// capped at the grant — a session may narrow its share, never widen it —
// and the spill directory is the server's, so every spill file lands under
// one root the operator chose. Engine-name validation and the reference
// engine's single-threaded/no-spill conflicts delegate to
// core.EngineFor, the same resolution the CLIs use, so the error
// vocabulary stays in one place.
func (s *session) rebuild() error {
	switch s.engine {
	case "exec", "parallel":
		workers := s.parallel
		if s.engine == "parallel" && workers == 0 {
			workers = s.grant.Workers // "parallel" defaults to the full share
		}
		if workers > s.grant.Workers {
			workers = s.grant.Workers
		}
		mem := s.mem
		if mem == 0 || (s.grant.Memory > 0 && mem > s.grant.Memory) {
			mem = s.grant.Memory // 0 stays 0 on an unbudgeted server
		}
		s.spec = exec.NewSpec(exec.Config{
			Parallelism:  workers,
			MemoryBudget: mem,
			SpillDir:     s.spill,
		})
		return nil
	default:
		// "", "reference", and unknown names: EngineFor validates the
		// name and the reference engine's conflicts with parallel/mem.
		spec, err := core.EngineFor(s.engine, exec.Config{Parallelism: s.parallel, MemoryBudget: s.mem})
		if err != nil {
			return err
		}
		s.spec = spec
		return nil
	}
}
