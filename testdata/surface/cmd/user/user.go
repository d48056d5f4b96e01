// Command user is the fixture's only user of internal/lib.
package main

import "fixture/internal/lib"

type doer interface{ Do() }

func main() {
	var d doer = lib.Impl{}
	d.Do()
	_ = lib.Used()
}
