package api

import "testing"

func TestAPI(t *testing.T) {
	c := &Counter{}
	c.Put(TestOnly() + Oracle())
	c.Reset()
	if c.Sum != 0 {
		t.Fatal("unreachable")
	}
}
