// Package dep declares deprecated names and references them from their
// own file, which the deprecated pass allows.
package dep

// Config has one deprecated field and one live one.
type Config struct {
	// Deprecated: ignored.
	Old int
	// Fresh is live.
	Fresh int
	// Mention is live: its doc says Deprecated: mid-paragraph, which is
	// not the convention.
	Mention int
}

// OldFunc is kept for outside callers.
//
// Deprecated: call Fresh instead.
func OldFunc() int { return Config{Old: 1}.Old }

// Fresh is live.
func Fresh() int { return OldFunc() }
