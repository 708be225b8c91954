package core

// Seeded schedule perturbation. EulerFD's result depends on the order in
// which evidence is gathered: which cluster is sampled first decides the
// attribute-frequency split rank, and which window sizes run before capa
// parks a cluster decides which rare non-FDs surface. The engine is
// deterministic by construction (invariant I4 — no ambient RNG), so the
// only sanctioned randomness is an explicit seed that picks one schedule
// out of a family, each member exactly reproducible: ensembles
// (internal/ensemble) run N seeds and vote.
//
// A nonzero seed perturbs exactly two choices, both made once, on the
// coordinator, before the first pass — so every Workers value still
// computes the same result for a given seed:
//
//   - the initial cluster order (a Fisher–Yates shuffle), which permutes
//     the MLFQ seeding pass and the split-rank evidence;
//   - the per-cluster window-size cycle start (a rotation offset), so
//     different seeds sweep window sizes in different rotations of
//     2..len(rows) while still covering each size exactly once —
//     ExhaustWindows exactness is unaffected.
//
// Seed = 0 applies neither and is byte-identical to the unseeded engine.

// splitmix64 is the SplitMix64 generator (Steele et al., "Fast splittable
// pseudorandom number generators"): a 64-bit counter passed through a
// finalizing mixer. One addition and three xor-multiply rounds per draw,
// no allocation, and — unlike math/rand's global functions, which the
// nondeterm gate bans — fully determined by the explicit state.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn draws a value in [0, n). The modulo bias is irrelevant here: draws
// only perturb a schedule, and any bias is the same on every machine.
func (r *splitmix64) intn(n int) int {
	return int(r.next() % uint64(n))
}

// SeedSequence derives the n member seeds of an ensemble from a base
// seed: member 0 runs the base seed itself — an ensemble of one is the
// plain seeded run, byte for byte — and members 1..n-1 draw from the
// splitmix64 stream keyed by the base. The sequence is a pure function of
// (base, n), so every layer that needs to name a member's schedule (the
// regress cell, the serve progress, a reproduction from the CLI) derives
// the same seeds.
func SeedSequence(base uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	if n == 0 {
		return seeds
	}
	seeds[0] = base
	rng := splitmix64{state: base}
	for i := 1; i < n; i++ {
		seeds[i] = rng.next()
	}
	return seeds
}

// SetSeed applies the seeded schedule perturbation. It must be called
// before the first Drain (the schedule is fixed once sampling starts) and
// is a no-op for seed 0, preserving the canonical schedule byte for byte.
func (s *Sampler) SetSeed(seed uint64) {
	if seed == 0 {
		return
	}
	if s.seeded {
		panic("core: Sampler.SetSeed called after sampling started")
	}
	rng := splitmix64{state: seed}
	// Fisher–Yates over the initial cluster order: permutes both the
	// seeding pass of Drain and, through it, the evidence the attribute
	// split rank is derived from.
	for i := len(s.clusters) - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		s.clusters[i], s.clusters[j] = s.clusters[j], s.clusters[i]
	}
	// Rotate each cluster's window-size cycle. Draws happen in the
	// post-shuffle cluster order, so the offsets are themselves a function
	// of the shuffle — one seed, one schedule. Clusters with a single
	// window size (span ≤ 1) have nothing to rotate and draw nothing,
	// keeping the draw sequence stable across relations that share a
	// cluster-size profile.
	for _, c := range s.clusters {
		if span := len(c.rows) - 1; span > 1 {
			c.wstart = rng.intn(span)
			c.setWindow()
		}
	}
}
