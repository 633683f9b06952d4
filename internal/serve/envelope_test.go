package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// stageGolden pins the deliberate HTTP mapping of every failure stage.
// This is the exhaustiveness gate the error contract hangs on: a stage
// added to experiments.KnownStages or ServerStages without a row here —
// and a decision in StatusForStage — fails this test, so no failure class
// can ever reach the wire with an accidental status.
var stageGolden = map[string]struct {
	status    int
	retryable bool
}{
	// Cell stages (experiments.KnownStages).
	"validate":     {http.StatusBadRequest, false},
	"map":          {http.StatusUnprocessableEntity, false},
	"trace":        {http.StatusUnprocessableEntity, false},
	"simulate":     {http.StatusUnprocessableEntity, false},
	"evaluate":     {http.StatusUnprocessableEntity, false},
	"cycle-budget": {http.StatusUnprocessableEntity, false},
	"oracle":       {http.StatusInternalServerError, false},
	"invariant":    {http.StatusInternalServerError, false},
	"diverged":     {http.StatusInternalServerError, false},
	"panic":        {http.StatusInternalServerError, false},
	"timeout":      {http.StatusGatewayTimeout, true},
	"canceled":     {499, true},

	// Server-level stages (ServerStages).
	StageMethod:    {http.StatusMethodNotAllowed, false},
	StageDecode:    {http.StatusBadRequest, false},
	StageBodySlow:  {http.StatusRequestTimeout, true},
	StageBodySize:  {http.StatusRequestEntityTooLarge, false},
	StageQueueFull: {http.StatusTooManyRequests, true},
	StageShed:      {http.StatusTooManyRequests, true},
	StageDraining:  {http.StatusServiceUnavailable, true},
	StagePanic:     {http.StatusServiceUnavailable, true},
}

// TestStatusForStageExhaustive walks every known stage — cell-level and
// server-level — and checks it against the golden table in both
// directions: every stage has a deliberate mapping, and the golden table
// carries no stale rows for stages that no longer exist.
func TestStatusForStageExhaustive(t *testing.T) {
	stages := append(experiments.KnownStages(), ServerStages()...)
	seen := make(map[string]bool, len(stages))
	for _, stage := range stages {
		seen[stage] = true
		want, ok := stageGolden[stage]
		if !ok {
			t.Errorf("stage %q has no golden row: a new stage needs a deliberate HTTP mapping here and in StatusForStage", stage)
			continue
		}
		status, retryable := StatusForStage(stage)
		if status != want.status || retryable != want.retryable {
			t.Errorf("StatusForStage(%q) = (%d, %v), golden says (%d, %v)", stage, status, retryable, want.status, want.retryable)
		}
	}
	for stage := range stageGolden {
		if !seen[stage] {
			t.Errorf("golden table row %q matches no known stage: stale row, or the stage lost its KnownStages/ServerStages entry", stage)
		}
	}
}

// TestStatusForStageUnknown: an unmapped stage reports (0, false) so
// callers can detect it, and errorEnvelope degrades it to a structured 500
// rather than letting it escape the envelope.
func TestStatusForStageUnknown(t *testing.T) {
	if status, retryable := StatusForStage("no-such-stage"); status != 0 || retryable {
		t.Fatalf("StatusForStage(unknown) = (%d, %v), want (0, false)", status, retryable)
	}
	status, env := errorEnvelope("no-such-stage", "boom", 0)
	if status != http.StatusInternalServerError {
		t.Fatalf("unknown stage degraded to %d, want 500", status)
	}
	if env.OK || env.Error == nil || env.Error.Stage != "no-such-stage" {
		t.Fatalf("unknown-stage envelope malformed: %+v", env)
	}
}

// TestWriteEnvelopeRetryAfter: retryable envelopes carry a Retry-After
// header in whole seconds, rounded up and never below 1; non-retryable
// envelopes carry none.
func TestWriteEnvelopeRetryAfter(t *testing.T) {
	cases := []struct {
		stage string
		ms    int64
		want  string // "" = header absent
	}{
		{StageShed, 1500, "2"},
		{StageQueueFull, 0, "1"},
		{StageDraining, 1000, "1"},
		{"validate", 5000, ""},
	}
	for _, c := range cases {
		rr := httptest.NewRecorder()
		status, env := errorEnvelope(c.stage, "x", c.ms)
		writeEnvelope(rr, status, env)
		if got := rr.Header().Get("Retry-After"); got != c.want {
			t.Errorf("stage %s retry_after_ms=%d: Retry-After = %q, want %q", c.stage, c.ms, got, c.want)
		}
		if rr.Code != status {
			t.Errorf("stage %s: wrote status %d, want %d", c.stage, rr.Code, status)
		}
		round := &Envelope{}
		if err := json.Unmarshal(rr.Body.Bytes(), round); err != nil {
			t.Errorf("stage %s: body is not an envelope: %v", c.stage, err)
		} else if round.Error == nil || round.Error.Status != status {
			t.Errorf("stage %s: envelope does not echo its status: %+v", c.stage, round.Error)
		}
	}
}

// TestCellEnvelopeOmitsStack: the wire rendering of a cell failure carries
// the error text, never the captured stack (stacks are for server logs and
// replay bundles).
func TestCellEnvelopeOmitsStack(t *testing.T) {
	ce := experiments.NewCellError("k", 1, errors.New("kaboom"))
	ce.Stack = []byte("goroutine 1 [running]: secret frames")
	status, env := cellEnvelope(ce)
	if status == 0 || env.Error == nil {
		t.Fatalf("cellEnvelope = (%d, %+v)", status, env)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "secret frames") {
		t.Fatal("cell envelope leaked the stack onto the wire")
	}
}
