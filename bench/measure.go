package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// instance is one workload after set-up: a closed loop of clients, each
// calling op and waiting for its answer before calling it again.
type instance struct {
	// clients is the number of goroutines driving op (never more than the
	// box has cores).
	clients int
	// op runs operation i on behalf of client c and returns the statement's
	// latency: the time from handing the statement to the front door until
	// the whole result is in the caller's hands. Checking the result is
	// outside that window. A non-nil error is a failed operation. With a
	// non-nil recorder op also records its spans and runs the layer probes.
	op func(c, i int, rec *recorder) (time.Duration, error)
	// roundOps, when non-zero, cuts a pass into rounds of exactly that many
	// operations with reset (not measured) before each, so a workload that
	// grows its own state walks the same trajectory in every round. A round
	// that has started always finishes.
	roundOps int
	reset    func() error
	// verify checks, after a pass, what no single operation can: that the
	// pass exercised the mechanism the workload is named for.
	verify func() error
	// layers adds the per-layer metrics that do not come from spans.
	layers func(p *pass, m map[string]float64) error
	// close, when set, stops the servers the set-up started.
	close func()

	// next numbers operations across passes, so a pass continues the
	// statement cycle where the warm-up left it.
	next atomic.Int64
}

func (in *instance) stop() {
	if in.close != nil {
		in.close()
	}
}

// pass is the outcome of one measured stretch of operations.
type pass struct {
	lat       []float64 // per operation, milliseconds
	wall      time.Duration
	mallocs   uint64
	attempted int
	failed    int
	errs      []error // the first few failures
	vacuous   error   // what the instance's verify found, if anything
	rec       *recorder
}

// runPass drives the instance's closed loops for about d. Wall time and
// allocations are taken per round, so a reset between rounds is charged to
// neither.
func runPass(in *instance, d time.Duration, rec *recorder) (*pass, error) {
	p := &pass{rec: rec}
	runtime.GC()
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	for first := true; first || time.Now().Before(deadline); first = false {
		if in.reset != nil {
			if err := in.reset(); err != nil {
				return nil, fmt.Errorf("reset: %w", err)
			}
		}
		var issued atomic.Int64
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < in.clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for n := 0; ; n++ {
					if in.roundOps > 0 {
						if issued.Add(1) > int64(in.roundOps) {
							return
						}
					} else if n > 0 && !time.Now().Before(deadline) {
						return
					}
					lat, err := in.op(c, int(in.next.Add(1)-1), rec)
					mu.Lock()
					p.attempted++
					if err != nil {
						p.failed++
						if len(p.errs) < 3 {
							p.errs = append(p.errs, err)
						}
					} else {
						p.lat = append(p.lat, float64(lat)/1e6)
					}
					mu.Unlock()
				}
			}(c)
		}
		wg.Wait()
		p.wall += time.Since(start)
		runtime.ReadMemStats(&after)
		p.mallocs += after.Mallocs - before.Mallocs
	}
	if in.verify != nil {
		p.vacuous = in.verify()
	}
	return p, nil
}

// quantile returns the q-quantile of xs by linear interpolation, or 0 for
// an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
