// Package user calls the live exports of package api.
package user

import "repro/internal/lint/testdata/testonly/api"

func use() int {
	c := &api.Counter{}
	api.Drain(c, api.Live())
	return c.Sum + api.Fold(api.Max{}, 1, 2)
}
