// Package serve is the mapping-as-a-service front end: a hardened
// HTTP/JSON server (cmd/topomapd) that accepts a kernel — by registry name
// or as polyhedral source — plus a machine description and returns the
// computed mapping summary and predicted miss profile.
//
// A single request costs anywhere from microseconds (cache hit) to seconds
// (a cold weak-locality cell), so robustness under load is the package's
// whole design, layered front to back:
//
//   - Admission control: cold evaluations pass through a bounded queue
//     with per-class concurrency caps (ad-hoc uploads are capped below
//     registry requests so unbounded-universe traffic cannot starve the
//     bounded one). A full queue answers 429 + Retry-After; above the
//     shed watermark, cold non-cached requests are rejected first while
//     LRU hits keep being served.
//   - Budgets: every evaluation runs under a deadline (server default,
//     tightened by a Request-Timeout header) and the cycle budget riding
//     repro.EvaluateContext + cachesim.Limits. Failures surface as
//     structured JSON envelopes mapped from CellError stages
//     (StatusForStage) — never a 500 with a stack.
//   - Coalescing + bounded memory: concurrent requests for the same cell
//     key share one evaluation (experiments.FlightGroup) whose context is
//     canceled when the last interested client disconnects, and results
//     live in a bounded LRU (experiments.ResultLRU), optionally warmed
//     from and persisted to a lockfile-guarded checkpoint.
//   - Lifecycle: /healthz + /readyz + /statusz, graceful drain on context
//     cancellation (stop accepting, finish in-flight under the drain
//     deadline, then cancel evaluations) and per-request panic-to-503
//     containment.
//
// The chaos/soak harness in serve/chaostest drives all of this with
// seeded client faults (internal/chaos) and asserts the invariants: only
// well-formed envelopes, zero goroutine leaks, bounded memory, retryable
// sheds.
package serve
