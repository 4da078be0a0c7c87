package dep

func use() int {
	c := Config{Old: 2, Fresh: 3}
	_ = OldFunc()
	_ = c.Old //reprolint:allow deprecated fixture: a suppressed reference
	return c.Fresh + Fresh()
}
