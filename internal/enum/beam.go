package enum

import (
	"cmp"
	"fmt"
	"slices"

	"tqp/internal/algebra"
	"tqp/internal/props"
)

// The beam's shape: each round keeps the beamWidth cheapest distinct
// plans, and the search stops after beamRounds rounds.
const (
	beamWidth  = 16
	beamRounds = 24
)

// BeamConfig controls the cost-guided beam search — the "heuristics ...
// necessary to achieve an efficient and effective optimizer" of the paper's
// future-work section. Instead of closing the plan space like Enumerate,
// each round expands the beam members not expanded before by one guarded
// rewrite step and keeps the beamWidth cheapest distinct plans; the search
// stops after beamRounds rounds or when a round yields no new plan.
//
// A rewrite step that pushes a sort (S4–S10, T-sort) is followed down in
// the same expansion: the pushed sort is pushed again wherever the guard
// admits it, and every plan on the way is recorded and scored as a new plan
// of the round. A pushed sort typically scores worse until it reaches an
// operator that spends its order — a merge or group-at-a-time variant, or
// the DBMS, which sorts cheaply — so one step at a time the beam would
// prune the path to the plan where the order pays; the chase puts that plan
// in the running without widening the beam. All of it runs on the search's
// one interned memo (see the package doc), so the chased plans cost what
// their new nodes cost.
type BeamConfig struct {
	Config
	// Score returns a plan's cost; lower is better. The beam scores each
	// plan as it finds it, through Result.Score.
	Score func(plan algebra.Node, states *props.Memo) (float64, error)
}

// Beam runs the beam search from the initial plan. The returned Result
// lists every plan the search generated (initial plan first) with
// provenance and score; the caller picks the best by score.
func Beam(initial algebra.Node, cfg BeamConfig) (*Result, error) {
	if cfg.Score == nil {
		return nil, fmt.Errorf("enum: beam search needs a Score function")
	}
	x, err := newExpansion(initial, cfg.Config)
	if err != nil {
		return nil, err
	}
	x.chase = true
	res := x.res
	score := func(algebra.Node) (bool, error) {
		err := res.Score(cfg.Score)
		return err == nil, err
	}
	if err := res.Score(cfg.Score); err != nil {
		return nil, err
	}
	// The beam holds indices into res.Plans and res.Scores. Plans from
	// index fresh on were found in the previous round and are the only
	// members not yet expanded: expanding a member again could only
	// rediscover plans already seen.
	beam, fresh := []int{0}, 0
	for round := 0; round < beamRounds; round++ {
		found := len(res.Plans)
		for _, i := range beam {
			if i < fresh {
				continue
			}
			if err := x.expand(i, score); err != nil {
				return nil, err
			}
		}
		if len(res.Plans) == found {
			break
		}
		// Next beam: the cheapest beamWidth of the new plans ∪ old beam, so a
		// plateau can still be crossed while good plans are never lost.
		next := make([]int, 0, len(res.Plans)-found+len(beam))
		for i := found; i < len(res.Plans); i++ {
			next = append(next, i)
		}
		next = append(next, beam...)
		slices.SortStableFunc(next, func(a, b int) int { return cmp.Compare(res.Scores[a], res.Scores[b]) })
		if len(next) > beamWidth {
			next = next[:beamWidth]
		}
		beam, fresh = next, found
	}
	x.count()
	return res, nil
}
