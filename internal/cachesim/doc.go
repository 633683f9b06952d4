// Package cachesim is the hardware substitute for the paper's Intel
// machines and its Simics+GEMS simulations: a trace-driven, multi-core,
// multi-level set-associative cache simulator instantiated directly from a
// topology.Machine.
//
// Model:
//
//   - every cache node of the hierarchy tree becomes a set-associative
//     LRU cache with the node's size/associativity/line parameters;
//   - an access from core c probes the caches on c's path to the root in
//     order (L1, then the shared L2/L3/... above it) and costs the sum of
//     the latencies of every level probed, plus the memory latency when
//     even the last level misses;
//   - fills are inclusive: the line is installed in every cache on the
//     path on the way back down;
//   - cores advance in discrete-event order (the core with the smallest
//     local clock issues next), so concurrently scheduled groups interleave
//     in time — this is what makes horizontal (shared-cache) reuse and
//     destructive interference visible, the §2 phenomena the paper builds
//     on;
//   - a barrier round ends when every core has drained its stream; all
//     clocks then align to the maximum (plus a small barrier cost when the
//     schedule is synchronized).
//
// Writes are modeled as write-allocate and cost the same probe path as
// reads (write-back traffic is not separately charged; it is identical
// across the schemes being compared and cancels out of normalized results).
//
// # Streaming input
//
// The simulator consumes a trace.Source: at the start of each barrier
// round it obtains one trace.Cursor per core and the discrete-event loop
// pulls accesses from the cursor of whichever core's clock is smallest.
// Because the simulator only ever needs the next access per core, a lazily
// generated source (trace.StreamSchedule / trace.StreamOrder) is simulated
// in O(cores) working memory — no access stream is ever materialized. A
// fully expanded *trace.Program implements Source too and produces
// bit-identical results; trace.Materialize converts between the two for
// debugging.
//
// # Reused cache arrays
//
// A cache's tag and recency arrays depend only on its geometry, so cold
// runs share them instead of allocating a machine's worth per run:
// SimulateContext and SimulateOnce hand them to package-level sync.Pools
// when the run ends, on every path out, and the next simulator built for a
// cache of the same size class takes them from there. Taking an array
// resets every element, so a cold run on reused arrays is field-identical
// to one on fresh memory, even when the previous run was aborted. A
// Simulator built by New keeps its arrays for its lifetime, which is what
// gives Run its warm-cache semantics.
//
// # Self-checking
//
// Limits.Check >= check.Invariants arms runtime invariants inside the
// event loop: set occupancy and tag uniqueness, LRU recency of the
// just-touched way, cursors delivering exactly Len() accesses, no negative
// addresses, a monotone discrete-event clock, and an end-of-run
// conservation pass tying per-cache hit/miss counts to their children's
// inflow and TotalCycles to the slowest core. Violations abort the run
// with a *check.InvariantError — corrupted statistics are never returned.
// The checks are observational: a healthy run's Result is bit-identical
// with them on or off. Limits.Replace is a test-only hook (used by
// internal/chaos) that perturbs victim selection after the LRU choice;
// the differential oracle in internal/oracle, not these invariants, is
// what catches it.
package cachesim
