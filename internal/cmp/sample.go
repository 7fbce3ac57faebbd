package cmp

import (
	"context"
	"fmt"

	"confluence/internal/frontend"
	"confluence/internal/prefetch"
)

// Sampling configures SMARTS-style sampled measurement: Windows detailed
// measurement windows of WindowInstr instructions per core, one per
// PeriodInstr instructions of forward progress, with the gaps covered by
// functional fast-forward (Core.FastStep — architectural and
// history-relevant state evolves, timing does not). WindowWarmupInstr,
// when non-zero, runs that many instructions of detailed simulation
// immediately before each window without measuring them — healing the
// timing-only state fast-forward cannot warm (prefetcher run-ahead,
// in-flight fills) before measurement starts.
//
// The zero value disables sampling (exact mode, the golden anchor).
type Sampling struct {
	WindowInstr       uint64 // detailed instructions measured per window, per core
	PeriodInstr       uint64 // instructions per core between window starts
	Windows           int    // number of measurement windows
	WindowWarmupInstr uint64 // detailed-but-unmeasured instructions before each window

	// JitterSeed, when non-zero, offsets each window pseudo-randomly
	// within its period — a deterministic hash of the seed and the
	// window index, so placement is identical for any worker count —
	// breaking aliasing between the sampling period and periodic
	// structure in the workload. Zero places every window at the start
	// of its period (pure systematic sampling).
	JitterSeed uint64
}

// Enabled reports whether the configuration asks for sampled execution.
func (sp Sampling) Enabled() bool { return sp != Sampling{} }

// autoWindowInstr, autoWarmupInstr, and autoPeriodInstr fix the shape
// of auto-derived plans. The warm-up segment heals a *fixed-length*
// transient — prefetcher run-ahead and in-flight fills that functional
// warming cannot evolve — so it does not scale with the window; the
// window itself carries the measured mass, and the sampling error of
// the aggregate IPC shrinks as 1/sqrt(windows × window), so a large
// window amortizes the warm-up tax instead of paying it more often.
// The period is the empirical sweet spot of the tolerance suite:
// shorter periods buy windows that the warm-up tax eats, and several
// nearby periods (notably 75k) alias with the request structure of the
// synthetic server workloads.
const (
	autoWindowInstr = 6000
	autoWarmupInstr = 3000
	autoPeriodInstr = 60_000
)

// AutoSampling derives a sampling plan for a measure region using
// fixed-shape windows: autoWindowInstr measured instructions behind an
// autoWarmupInstr detailed-but-unmeasured warm-up, one window every
// autoPeriodInstr instructions. Detailed simulation covers 15% of the
// measure region; combined with a fast-forwarded warm-up phase of at
// least half the measure region, the whole run sees a ≥10× reduction
// in detailed-simulated instructions. Window count scales with the
// region so window-to-window variance averages down in the confidence
// intervals. Regions too short for even one shaped window fall back to
// a single window covering everything.
func AutoSampling(measure uint64) Sampling {
	if measure == 0 {
		return Sampling{}
	}
	const perWindow = autoWindowInstr + autoWarmupInstr
	n := measure / autoPeriodInstr
	if n < 1 {
		if measure < perWindow {
			return Sampling{WindowInstr: measure, PeriodInstr: measure, Windows: 1}
		}
		n = 1
	}
	return Sampling{
		WindowInstr:       autoWindowInstr,
		PeriodInstr:       measure / n,
		Windows:           int(n),
		WindowWarmupInstr: autoWarmupInstr,
		JitterSeed:        autoJitterSeed,
	}
}

// autoJitterSeed is the fixed placement seed for auto-derived plans:
// jittered (aliasing-free) yet reproducible run to run.
const autoJitterSeed = 1

// jitterOffset returns the deterministic placement offset for window w
// given room spare instructions in its period (splitmix64 of the seed
// and index, reduced to [0, room]).
func jitterOffset(seed, w, room uint64) uint64 {
	if seed == 0 || room == 0 {
		return 0
	}
	x := seed + (w+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x % (room + 1)
}

// Validate checks an enabled configuration for internal consistency.
func (sp Sampling) Validate() error {
	if !sp.Enabled() {
		return nil
	}
	if sp.WindowInstr == 0 {
		return fmt.Errorf("cmp: sampling window must be at least 1 instruction")
	}
	if sp.Windows < 1 {
		return fmt.Errorf("cmp: sampling needs at least 1 window")
	}
	if sp.PeriodInstr < sp.WindowInstr+sp.WindowWarmupInstr {
		return fmt.Errorf("cmp: sampling period %d shorter than window %d + window warmup %d",
			sp.PeriodInstr, sp.WindowInstr, sp.WindowWarmupInstr)
	}
	return nil
}

// DetailedInstr returns the detailed-simulated instructions per core
// (measured windows plus per-window detailed warm-up).
func (sp Sampling) DetailedInstr() uint64 {
	return uint64(sp.Windows) * (sp.WindowInstr + sp.WindowWarmupInstr)
}

// TotalInstr returns the total instructions advanced per core during
// sampled measurement: every period is covered in full (the last
// window's trailing gap is fast-forwarded too, so the full-coverage
// probe tallies span exactly Windows×PeriodInstr).
func (sp Sampling) TotalInstr() uint64 {
	if sp.Windows < 1 {
		return 0
	}
	return uint64(sp.Windows) * sp.PeriodInstr
}

// FastForward advances every core by approximately n instructions
// through the functional fast-forward path. Cores step their chunks
// concurrently, each on a goroutine of its own (see engine.phaseFF); the
// calling goroutine replays their shared-state writes in canonical
// (round, core) order a chunk behind, so fast-forward is bit-identical to
// the serial round-robin schedule for any worker count. An unset intra
// worker count (SetIntra's workers = 0) lets min(GOMAXPROCS, cores)
// cores step at once.
func (s *System) FastForward(ctx context.Context, n uint64) error {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	if n == 0 {
		return nil
	}
	s.eng.ff = true
	err := s.eng.phase(ctx, n)
	s.eng.ff = false
	return err
}

// Coverage is full-region probe accounting for a sampled run: L1-I and
// BTB access/miss tallies summed over every instruction of the measure
// region — detailed segments (window warm-ups and windows, from Stats
// deltas) plus fast-forwarded gaps (from FFCounts deltas). Exact reports
// that no core has a prefetcher wired: the functional path then probes
// the same contents detailed simulation would have evolved (fills come
// only from the demand stream), so the tallies — and the MPKI ratios —
// are exact, not sampled estimates. With a prefetcher, gap probes miss
// where run-ahead would have filled, and the window estimates with their
// confidence intervals are the numbers to trust.
type Coverage struct {
	Instructions    uint64 `json:"instructions"` // summed across cores
	L1IAccesses     uint64 `json:"l1i_accesses"`
	L1IMisses       uint64 `json:"l1i_misses"`
	BTBTakenLookups uint64 `json:"btb_taken_lookups"`
	BTBMisses       uint64 `json:"btb_misses"`
	Exact           bool   `json:"exact"`
}

// L1IMPKI returns full-coverage L1-I misses per kilo-instruction.
func (c *Coverage) L1IMPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.L1IMisses) / float64(c.Instructions) * 1000
}

// BTBMPKI returns full-coverage BTB misses per kilo-instruction.
func (c *Coverage) BTBMPKI() float64 {
	if c.Instructions == 0 {
		return 0
	}
	return float64(c.BTBMisses) / float64(c.Instructions) * 1000
}

// addStats folds a detailed segment's Stats delta into the coverage.
func (c *Coverage) addStats(d *frontend.Stats) {
	c.Instructions += d.Instructions
	c.L1IAccesses += d.L1IAccesses
	c.L1IMisses += d.L1IMisses
	c.BTBTakenLookups += d.BTBTakenLookups
	c.BTBMisses += d.BTBMisses
}

// addFF folds a fast-forwarded gap's probe delta into the coverage.
func (c *Coverage) addFF(d *frontend.FFCounts) {
	c.Instructions += d.Instructions
	c.L1IAccesses += d.L1IAccesses
	c.L1IMisses += d.L1IMisses
	c.BTBTakenLookups += d.BTBTakenLookups
	c.BTBMisses += d.BTBMisses
}

// prefetcherless reports whether no core has a prefetcher wired (the
// condition under which fast-forward probe tallies are exact). The Null
// prefetcher issues nothing, so it counts as absent.
func (s *System) prefetcherless() bool {
	for _, c := range s.Cores {
		switch c.Prefetcher().(type) {
		case nil, prefetch.Null:
		default:
			return false
		}
	}
	return true
}

// RunSampled performs sampled measurement over an already-warmed system
// (warm the caches first via FastForward, RestoreWarmState, or a
// detailed phase): per window, an optional detailed-but-unmeasured warm
// segment, then a measured detailed window, then fast-forward across the
// rest of the period — including the last window's trailing gap, so the
// coverage tallies span the whole region. Measurement counters reset on
// entry; each window's per-core stat deltas accumulate into the returned
// aggregate, window list, and per-core totals (agg is the in-order sum
// of the window aggregates).
func (s *System) RunSampled(ctx context.Context, sp Sampling) (agg *frontend.Stats, windows []frontend.Stats, perCore []*frontend.Stats, cov *Coverage, err error) {
	if err := sp.Validate(); err != nil {
		return nil, nil, nil, nil, err
	}
	if !sp.Enabled() {
		return nil, nil, nil, nil, fmt.Errorf("cmp: RunSampled with zero Sampling")
	}
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	for _, c := range s.Cores {
		c.ResetStats()
	}
	if s.Hier != nil {
		s.Hier.ResetStats()
	}
	agg = &frontend.Stats{}
	perCore = make([]*frontend.Stats, len(s.Cores))
	for i := range perCore {
		perCore[i] = &frontend.Stats{}
	}
	cov = &Coverage{Exact: s.prefetcherless()}
	ffBase := make([]frontend.FFCounts, len(s.Cores))
	for i, c := range s.Cores {
		ffBase[i] = c.FFCounts()
	}
	windows = make([]frontend.Stats, 0, sp.Windows)
	pre := make([]frontend.Stats, len(s.Cores))
	preWarm := make([]frontend.Stats, len(s.Cores))
	room := sp.PeriodInstr - sp.WindowInstr - sp.WindowWarmupInstr
	for w := 0; w < sp.Windows; w++ {
		off := jitterOffset(sp.JitterSeed, uint64(w), room)
		if off > 0 {
			if err := s.FastForward(ctx, off); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		for i, c := range s.Cores {
			preWarm[i] = *c.Stats()
		}
		if sp.WindowWarmupInstr > 0 {
			if err := s.eng.phase(ctx, sp.WindowWarmupInstr); err != nil {
				return nil, nil, nil, nil, err
			}
		}
		for i, c := range s.Cores {
			pre[i] = *c.Stats()
		}
		if err := s.eng.phase(ctx, sp.WindowInstr); err != nil {
			return nil, nil, nil, nil, err
		}
		var wagg frontend.Stats
		for i, c := range s.Cores {
			d := *c.Stats()
			d.Sub(&pre[i])
			perCore[i].Add(&d)
			wagg.Add(&d)
			// The whole detailed segment — warm-up included — counts toward
			// full coverage, though only the window is measured.
			seg := *c.Stats()
			seg.Sub(&preWarm[i])
			cov.addStats(&seg)
		}
		windows = append(windows, wagg)
		agg.Add(&wagg)
		if rest := room - off; rest > 0 {
			if err := s.FastForward(ctx, rest); err != nil {
				return nil, nil, nil, nil, err
			}
		}
	}
	for i, c := range s.Cores {
		d := c.FFCounts()
		d.Sub(&ffBase[i])
		cov.addFF(&d)
	}
	return agg, windows, perCore, cov, nil
}

// ConsumedRecords returns a copy of the per-core count of stream records
// consumed so far (stepped detailed, stepped fast-forward, or skipped) —
// the stream position a warm-up snapshot captures.
func (s *System) ConsumedRecords() []uint64 {
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	out := make([]uint64, len(s.eng.prog))
	for i := range s.eng.prog {
		out[i] = s.eng.prog[i].recs
	}
	return out
}

// SkipRecords advances each core's record stream past counts[i] records
// by decoding and discarding them — no simulation state moves. Restoring
// a warm-up snapshot uses it to reposition the sources to the consumed
// count the snapshot recorded: the next record each core steps is
// bit-identical to the one a live warm-up run would step next (the
// decode-ahead queues make the skip invisible, exactly as they make
// phase boundaries invisible).
func (s *System) SkipRecords(ctx context.Context, counts []uint64) error {
	if len(counts) != len(s.Cores) {
		return fmt.Errorf("cmp: SkipRecords got %d counts for %d cores", len(counts), len(s.Cores))
	}
	if s.eng == nil {
		s.eng = newEngine(s)
	}
	e := s.eng
	for c := range s.Cores {
		need := counts[c]
		q := &e.q[c]
		for need > 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if q.n == 0 {
				if q.refill(s.Sources[c]); q.n == 0 {
					return q.dryErr(c)
				}
			}
			drop := min(uint64(q.n), need)
			q.head += int(drop)
			q.n -= int(drop)
			e.prog[c].recs += drop
			need -= drop
		}
	}
	return nil
}
