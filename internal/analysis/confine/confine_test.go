package confine_test

import (
	"testing"

	"hybriddb/internal/analysis/analysistest"
	"hybriddb/internal/analysis/confine"
)

func TestConfine(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), confine.New(), "./src/confine/...")
}
