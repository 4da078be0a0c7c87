package main

import (
	"strings"
	"testing"
)

// TestRejectsNegativeFlags: a negative -clique-budget or -workers is an
// error before anything runs, not a silent run with the default.
func TestRejectsNegativeFlags(t *testing.T) {
	for _, c := range []struct {
		budget, workers int
		want            string
	}{
		{-5, 0, "-clique-budget -5"},
		{0, -3, "-workers -3"},
	} {
		if err := checkFlags(c.budget, c.workers); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-clique-budget %d -workers %d: error %v, want one naming %q", c.budget, c.workers, err, c.want)
		}
	}
	if err := checkFlags(0, 0); err != nil {
		t.Errorf("defaults rejected: %v", err)
	}
}
