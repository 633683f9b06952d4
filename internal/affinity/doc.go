// Package affinity provides the dependence-graph machinery of the paper's
// Fig 7 scheduler: a directed graph over iteration groups with
// strongly-connected-component condensation and topological ordering.
// (Fig 6's sharing weights, the number of common 1 bits between two group
// tags, are computed on the fly by internal/core from tags.Tag.Dot.)
package affinity
