// Package chaos is the fault injector that proves the self-checking layers
// actually fire. It deterministically corrupts a cell's simulation input —
// a bit-flipped address, a truncated or duplicated access stream, an
// out-of-range index surfacing as a negative address — or perturbs the
// simulator's replacement decisions through the cachesim.Limits.Replace
// hook, all keyed by (seed, cell id) so the same cells are poisoned with
// the same faults on every run at any worker count.
//
// Each fault class maps to the layer that must catch it:
//
//	BitFlip     → oracle divergence (the oracle reads the clean source)
//	Truncate    → "cursor-short" invariant (hits+misses would undercount Len)
//	Duplicate   → "cursor-overrun" invariant (stream yields beyond Len)
//	BadIndex    → "negative-address" invariant (corrupted synthesis)
//	Replacement → oracle divergence (set invariants deliberately still hold)
//
// The chaos test suite in internal/experiments runs a poisoned grid and
// asserts that every poisoned cell fails with the right detector, that every
// healthy cell renders byte-identically to a clean run, and that each
// detection writes a replay bundle benchtool -replay reproduces.
//
// ClientFault (client.go) is the serving layer's counterpart: seeded
// hostile-client classes (slow-loris, malformed, oversized, disconnecting)
// that the topomapd soak harness in internal/serve/chaostest sends
// alongside healthy traffic.
package chaos
