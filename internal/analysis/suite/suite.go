// Package suite assembles the hybridlint analyzer set. It exists as
// its own package (rather than living in internal/analysis) so the
// framework does not import the analyzers and each analyzer's tests
// can import the framework without a cycle.
package suite

import (
	"hybriddb/internal/analysis"
	"hybriddb/internal/analysis/bufalias"
	"hybriddb/internal/analysis/confine"
	"hybriddb/internal/analysis/determinism"
	"hybriddb/internal/analysis/lockorder"
	"hybriddb/internal/analysis/metricnames"
)

// Analyzers returns a fresh instance of every analyzer in the suite.
// Fresh instances matter: metricnames carries cross-package state for
// the duration of one run.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bufalias.New(),
		confine.New(),
		determinism.New(),
		lockorder.New(),
		metricnames.New(),
	}
}
