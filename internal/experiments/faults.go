package experiments

import (
	"context"
	"errors"
	"fmt"

	"repro"
	"repro/internal/cachesim"
)

// CellError is the structured failure of one experiment-grid cell. The
// runner converts every cell-level failure — pipeline errors, captured
// panics, per-cell timeouts, cycle-budget exhaustion — into a CellError so
// a sweep can report exactly which grid points failed, at which pipeline
// stage, and why, while every other cell completes normally.
type CellError struct {
	// Key is the failed cell's canonical identity (Cell.Key()).
	Key string
	// Stage locates the failure: "validate", "map", "trace", "simulate",
	// "oracle", "invariant", "diverged", "cycle-budget", "timeout",
	// "canceled", "panic" or "evaluate".
	Stage string
	// Err is the underlying error (a *repro.PanicError for contained
	// panics, a *repro.InvariantError for violated runtime invariants, a
	// *repro.DivergenceError for oracle disagreements). Unwrap exposes it
	// to errors.Is/As.
	Err error
	// Stack is the panicking goroutine's stack when the failure was a
	// contained panic, nil otherwise.
	Stack []byte
	// Attempts is the number of evaluation attempts made (1 + retries
	// consumed).
	Attempts int
	// Bundle is the path of the replay bundle written for this failure
	// (benchtool -replay re-executes it), empty when none was written.
	Bundle string
}

// Error renders the cell key, stage and cause.
func (e *CellError) Error() string {
	s := fmt.Sprintf("cell %s [%s]: %v", e.Key, e.Stage, e.Err)
	if e.Attempts > 1 {
		s += fmt.Sprintf(" (after %d attempts)", e.Attempts)
	}
	return s
}

// Unwrap exposes the underlying error to errors.Is and errors.As.
func (e *CellError) Unwrap() error { return e.Err }

// KnownStages enumerates every stage a *CellError can carry: the stages
// classifyStage produces and the explicit "panic" stage the runner assigns
// to panics that escape the repro boundary. Layers that map stages onto
// another vocabulary (e.g. the serve front-end's HTTP statuses) test
// against this list so a new stage cannot be added without deciding its
// mapping.
func KnownStages() []string {
	return []string{
		"validate", "map", "trace", "simulate", "oracle",
		"invariant", "diverged", "cycle-budget", "timeout",
		"canceled", "panic", "evaluate",
	}
}

// NewCellError wraps a cell failure with its key, a stage classification and
// the panic stack when one was captured, exactly as the runner does
// internally. An error that already is a *CellError passes through
// unchanged. Exported for front-ends (the topomapd server) that call
// repro.EvaluateContext directly but want the same structured failures.
func NewCellError(key string, attempts int, err error) *CellError {
	return newCellError(key, attempts, err)
}

// classifyStage maps a cell failure to its stage name, with the panic stack
// when one was captured.
func classifyStage(err error) (stage string, stack []byte) {
	stage = "evaluate"
	var pe *repro.PanicError
	var ie *repro.InvariantError
	var de *repro.DivergenceError
	switch {
	case errors.As(err, &pe):
		stage, stack = pe.Stage, pe.Stack
	case errors.As(err, &ie):
		stage = "invariant"
	case errors.As(err, &de):
		stage = "diverged"
	case errors.Is(err, repro.ErrInvalidInput):
		stage = "validate"
	case errors.Is(err, cachesim.ErrCycleBudget):
		stage = "cycle-budget"
	case errors.Is(err, context.DeadlineExceeded):
		stage = "timeout"
	case errors.Is(err, context.Canceled):
		stage = "canceled"
	}
	return stage, stack
}

// newCellError wraps a cell failure with its key, a stage classification
// and the panic stack when one was captured. An error that already is a
// *CellError passes through unchanged.
func newCellError(key string, attempts int, err error) *CellError {
	var ce *CellError
	if errors.As(err, &ce) {
		return ce
	}
	stage, stack := classifyStage(err)
	return &CellError{Key: key, Stage: stage, Err: err, Stack: stack, Attempts: attempts}
}
