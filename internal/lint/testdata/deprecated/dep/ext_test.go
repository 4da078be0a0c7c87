package dep_test

import (
	"testing"

	"repro/internal/lint/testdata/deprecated/dep"
)

func TestExternal(t *testing.T) {
	if dep.OldFunc() != 1 || dep.Fresh() != 1 {
		t.Fatal("unreachable")
	}
}
