package dep

import "testing"

func TestUse(t *testing.T) {
	if (Config{}).Old != 0 || use() == 0 {
		t.Fatal("unreachable")
	}
}
