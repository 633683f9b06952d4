package experiments

import (
	"context"
	"time"
)

// Backoff is the jittered exponential backoff policy of the runner's
// per-cell retry (SetRetries): delays double per attempt from Base up to
// Max, and a deterministic jitter spreads retries of different identities
// apart so a correlated failure (a transient machine-wide stall) does not
// thunder back in lockstep.
//
// The jitter is a pure function of (Seed, id, attempt) — no global
// randomness, no wall clock — so a given retry schedule is reproducible,
// which keeps chaos tests and failure replays deterministic.
type Backoff struct {
	// Base is the delay before the first retry (attempt 1). Zero selects
	// DefaultBackoff.Base.
	Base time.Duration
	// Max caps the exponential growth. Zero selects DefaultBackoff.Max.
	Max time.Duration
	// Seed perturbs the jitter; two sweeps with different seeds interleave
	// their retries differently, but each is individually reproducible.
	Seed int64
}

// DefaultBackoff is the policy used when a Backoff's fields are zero.
var DefaultBackoff = Backoff{Base: 100 * time.Millisecond, Max: 5 * time.Second}

// Delay returns the pause before the given attempt (attempt 1 is the first
// retry) of the work item with the given identity: Base doubled per
// attempt, capped at Max, then jittered into [50%, 150%) by a
// deterministic hash of (Seed, id, attempt).
func (b Backoff) Delay(id string, attempt int) time.Duration {
	base, max := b.Base, b.Max
	if base <= 0 {
		base = DefaultBackoff.Base
	}
	if max <= 0 {
		max = DefaultBackoff.Max
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter into [50%, 150%): the same (seed, id, attempt) always lands on
	// the same delay, but distinct identities spread across the window.
	h := splitmix64(uint64(b.Seed) ^ fnv64(id) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(h%1024) / 1024 // [0, 1)
	return time.Duration(float64(d) * (0.5 + frac))
}

// SleepContext pauses for d or until the context dies, whichever comes
// first, and reports whether the full pause elapsed.
func SleepContext(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// splitmix64 is the deterministic mixing function behind the jitter (the
// same one internal/chaos uses for fault decisions).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fnv64 is the FNV-1a string hash feeding the jitter.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
