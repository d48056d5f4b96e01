// Package lib is the surface check's fixture: the comment on each name
// says what the check must make of it.
package lib

// Dead has no user at all: reported.
func Dead() {}

// OwnPackageOnly is used by Used alone: reported.
func OwnPackageOnly() int { return 1 }

// Used is called from cmd/user.
func Used() Result { return Result{N: OwnPackageOnly(), Span: Span{1, 2}} }

// Result is named nowhere outside this package; Used's signature
// mentions it.
type Result struct {
	N    int
	Span Span
	a    asserted
}

// Span's fields are written only through the positional literal in
// Used: neither is reported.
type Span struct{ Lo, Hi int }

// Options is cmd/user's configuration. The reachability pass reports
// each exported field that no reached code writes.
type Options struct {
	// Limit is set by cmd/user: not reported.
	Limit int
	// TestSet is set by lib_test.go alone: reported.
	TestSet int
	// Defaulted is set only by Apply's zero-value default, which is no
	// write: reported.
	Defaulted int
	// Allowed is set by nothing, but the fixture allows it: not reported.
	Allowed int
}

// Apply is called from cmd/user.
func (o *Options) Apply() int {
	if o.Defaulted == 0 {
		o.Defaulted = 3
	}
	return o.Limit + o.TestSet + o.Defaulted + o.Allowed
}

// Impl is named by cmd/user. Nothing calls Do on it; cmd/user converts
// it to an interface of its own that requires Do.
type Impl struct{}

// Do is used through that conversion alone.
func (Impl) Do() {}

// Shade is exported and prints itself, but nothing outside this package
// names it and nothing converts it: the surface check reports it, since
// a String kept only because fmt could call it does not make its type
// used, and the reachability pass reports it and its String.
type Shade int

func (s Shade) String() string { return "shade" }

// testOnly is called from lib_test.go alone, and tests are no root: the
// reachability pass reports it.
func testOnly() int { return 2 }

// asserted is reachable: Result names it. cmd/user calls a Do through an
// interface, but the only conversion of asserted to an interface that
// requires Do is the blank assertion below, which is not a use: the
// reachability pass reports asserted.Do.
type asserted struct{}

func (asserted) Do() {}

var _ interface{ Do() } = asserted{}
