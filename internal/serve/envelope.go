package serve

import (
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/experiments"
)

// MapRequest is the wire form of one mapping request. Exactly one of
// Kernel (registry name) or KernelSource (polyhedral source text) selects
// the kernel, and exactly one of Machine (registry name) or MachineJSON
// (a topology description in the machine JSON format) selects the machine.
type MapRequest struct {
	Kernel       string `json:"kernel,omitempty"`
	KernelSource string `json:"kernel_source,omitempty"`
	// KernelName names an ad-hoc KernelSource (default "adhoc"); the cell
	// key still includes a content digest, so distinct sources never
	// collide in the result cache.
	KernelName  string          `json:"kernel_name,omitempty"`
	Machine     string          `json:"machine,omitempty"`
	MachineJSON json.RawMessage `json:"machine_json,omitempty"`
	// Scheme is the paper scheme to map with: base, base+, local,
	// topology, combined (the default).
	Scheme string `json:"scheme,omitempty"`
	// BlockBytes overrides the decomposition block size (0 = paper
	// default, -1 = the §4.1 heuristic; any other negative size is
	// rejected at validate).
	BlockBytes int64 `json:"block_bytes,omitempty"`
	// Passes repeats the loop nest with warm caches (0 or 1 = single).
	Passes int `json:"passes,omitempty"`
	// MaxCycles caps the simulated cycle budget (0 = server default).
	MaxCycles uint64 `json:"max_cycles,omitempty"`
	// Check selects the self-checking level: off, invariants, sampled,
	// full ("" = off).
	Check string `json:"check,omitempty"`
}

// MapResult is the successful payload: the mapping summary plus the
// predicted miss profile, with Source naming where the answer came from.
type MapResult struct {
	Key         string             `json:"key"`
	Kernel      string             `json:"kernel"`
	Machine     string             `json:"machine"`
	Scheme      string             `json:"scheme"`
	Groups      int                `json:"groups,omitempty"`
	HasDeps     bool               `json:"has_deps,omitempty"`
	MapTimeNS   int64              `json:"map_time_ns,omitempty"`
	TotalCycles uint64             `json:"total_cycles"`
	Accesses    uint64             `json:"accesses"`
	MemAccesses uint64             `json:"mem_accesses"`
	MissRates   map[string]float64 `json:"miss_rates"`
	// Source is "computed", "lru" (cache hit) or "coalesced" (shared a
	// concurrent evaluation).
	Source string `json:"source"`
}

// ErrorBody is the structured failure payload. Stage is a CellError stage
// (experiments.KnownStages) or one of the server-level stages
// (ServerStages); Status repeats the HTTP status so the body is
// self-describing when it outlives the transport.
type ErrorBody struct {
	Stage        string `json:"stage"`
	Status       int    `json:"status"`
	Message      string `json:"message"`
	Retryable    bool   `json:"retryable"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// Envelope is the uniform response body: every topomapd response — success,
// cell failure, shed, drain, even a contained handler panic — decodes into
// it, which is what lets the chaos harness assert "only well-formed
// envelopes" as an invariant.
type Envelope struct {
	OK     bool       `json:"ok"`
	Result *MapResult `json:"result,omitempty"`
	Error  *ErrorBody `json:"error,omitempty"`
}

// Server-level stages: failures that happen before (or instead of) a cell
// evaluation, so they are serve's vocabulary rather than CellError's.
const (
	// StageMethod rejects a non-POST on an evaluation endpoint.
	StageMethod = "method"
	// StageDecode rejects an unreadable or non-JSON request body.
	StageDecode = "decode"
	// StageBodySlow rejects a body that did not arrive within the body
	// read deadline (slow-loris).
	StageBodySlow = "body-slow"
	// StageBodySize rejects a body over the size limit.
	StageBodySize = "body-size"
	// StageQueueFull sheds a cold request because the admission queue is
	// at capacity.
	StageQueueFull = "queue-full"
	// StageShed sheds a cold request because queue occupancy crossed the
	// shed watermark (cached results keep being served).
	StageShed = "shed"
	// StageDraining rejects a request arriving while the server drains.
	StageDraining = "draining"
	// StagePanic reports a handler panic contained to this request.
	StagePanic = "handler-panic"
)

// ServerStages enumerates every server-level stage, for the same
// exhaustiveness tests KnownStages supports.
func ServerStages() []string {
	return []string{
		StageMethod, StageDecode, StageBodySlow, StageBodySize,
		StageQueueFull, StageShed, StageDraining, StagePanic,
	}
}

// StatusForStage maps a failure stage — CellError or server-level — to its
// deliberate HTTP status and whether a client retry can succeed. Unknown
// stages return (0, false): the exhaustive table test walks
// experiments.KnownStages() and ServerStages() so adding a stage anywhere
// without deciding its mapping fails the build's tests, and the serving
// path treats 0 as 500 so an unmapped stage still cannot escape the
// envelope.
func StatusForStage(stage string) (status int, retryable bool) {
	switch stage {
	// Cell stages (experiments.KnownStages).
	case "validate":
		// The request described an impossible experiment.
		return http.StatusBadRequest, false
	case "map", "trace", "simulate", "evaluate":
		// The pipeline rejected a well-formed but unprocessable cell.
		return http.StatusUnprocessableEntity, false
	case "cycle-budget":
		// The cell exceeded its simulated-cycle budget; a retry with the
		// same budget fails identically.
		return http.StatusUnprocessableEntity, false
	case "oracle", "invariant", "diverged":
		// Self-checking caught the server lying; the result cannot be
		// trusted and the failure is ours, not the client's.
		return http.StatusInternalServerError, false
	case "panic", StagePanic:
		return statusPanic(stage)
	case "timeout":
		// The wall-clock budget expired; a retry under lighter load (or a
		// longer Request-Timeout) can succeed.
		return http.StatusGatewayTimeout, true
	case "canceled":
		// The client went away; 499 is the de-facto "client closed
		// request" status. Mostly unobservable (nobody is listening) but
		// coalesced followers can see a leader-side cancellation.
		return 499, true

	// Server-level stages.
	case StageMethod:
		return http.StatusMethodNotAllowed, false
	case StageDecode:
		return http.StatusBadRequest, false
	case StageBodySlow:
		return http.StatusRequestTimeout, true
	case StageBodySize:
		return http.StatusRequestEntityTooLarge, false
	case StageQueueFull, StageShed:
		return http.StatusTooManyRequests, true
	case StageDraining:
		return http.StatusServiceUnavailable, true
	}
	return 0, false
}

// statusPanic keeps the two panic vocabularies distinct: a contained
// evaluation panic is an internal error in the pipeline (500), a contained
// handler panic means this server instance misbehaved and a retry may land
// on a healthy one (503).
func statusPanic(stage string) (int, bool) {
	if stage == StagePanic {
		return http.StatusServiceUnavailable, true
	}
	return http.StatusInternalServerError, false
}

// errorEnvelope builds the envelope for a failure stage. An unmapped stage
// degrades to 500, never to a missing body.
func errorEnvelope(stage, message string, retryAfterMS int64) (int, *Envelope) {
	status, retryable := StatusForStage(stage)
	if status == 0 {
		status = http.StatusInternalServerError
	}
	return status, &Envelope{OK: false, Error: &ErrorBody{
		Stage:        stage,
		Status:       status,
		Message:      message,
		Retryable:    retryable,
		RetryAfterMS: retryAfterMS,
	}}
}

// cellEnvelope builds the envelope for a structured cell failure. The
// message is the CellError's rendering — key, stage, cause — with the
// stack deliberately omitted: stacks are for server logs and replay
// bundles, not wire responses.
func cellEnvelope(ce *experiments.CellError) (int, *Envelope) {
	return errorEnvelope(ce.Stage, ce.Error(), 0)
}

// writeEnvelope renders an envelope, setting Retry-After (whole seconds,
// rounded up) whenever the error is retryable.
func writeEnvelope(w http.ResponseWriter, status int, env *Envelope) {
	w.Header().Set("Content-Type", "application/json")
	if env.Error != nil && env.Error.Retryable {
		secs := (env.Error.RetryAfterMS + 999) / 1000
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(status)
	data, err := json.Marshal(env)
	if err != nil {
		// Envelope types marshal by construction; this is unreachable
		// without a programming error, and the status line already went
		// out.
		return
	}
	_, _ = w.Write(data)
}

// resultFromRecord flattens a checkpoint record into the wire result.
func resultFromRecord(rec *experiments.CheckpointRecord, kernel, machine, scheme, source string) *MapResult {
	res := &MapResult{
		Key:       rec.Key,
		Kernel:    kernel,
		Machine:   machine,
		Scheme:    scheme,
		Groups:    rec.Groups,
		HasDeps:   rec.HasDeps,
		MapTimeNS: rec.MapTimeNS,
		Source:    source,
		MissRates: map[string]float64{},
	}
	if rec.Sim != nil {
		res.TotalCycles = rec.Sim.TotalCycles
		res.Accesses = rec.Sim.Accesses
		res.MemAccesses = rec.Sim.MemAccesses
		for level := range rec.Sim.Levels {
			res.MissRates[strconv.Itoa(level)] = rec.Sim.MissRate(level)
		}
	}
	return res
}
