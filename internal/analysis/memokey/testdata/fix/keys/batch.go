package keys

import "fmt"

// BatchRef is a lease/batch identity: the attempt number is part of the
// identity, so a stale upload from a revoked lease can never satisfy a
// newer lease on the same cells.
type BatchRef struct {
	Grid    string
	Index   int
	Attempt int
}

// GoodToken covers the full batch identity.
//
//topovet:keyof BatchRef
func GoodToken(b BatchRef) string {
	return fmt.Sprintf("%s:%d:%d", b.Grid, b.Index, b.Attempt)
}

//topovet:keyof BatchRef
func BadToken(b BatchRef) string { // want `BadToken does not cover BatchRef.Attempt`
	return fmt.Sprintf("%s:%d", b.Grid, b.Index)
}
