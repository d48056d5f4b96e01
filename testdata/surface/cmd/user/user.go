// Command user is the fixture's only user of internal/lib.
package main

import "fixture/internal/lib"

type doer interface{ Do() }

func main() {
	var d doer = lib.Impl{}
	d.Do()
	_ = lib.Used()
	var o lib.Options
	o.Limit = 2
	_ = o.Apply()
}
