// Package lib is the surface check's fixture: the comment on each name
// says what the check must make of it.
package lib

// Dead has no user at all: reported.
func Dead() {}

// OwnPackageOnly is used by Used alone: reported.
func OwnPackageOnly() int { return 1 }

// Used is called from cmd/user.
func Used() Result { return Result{N: OwnPackageOnly()} }

// Result is named nowhere outside this package; Used's signature
// mentions it.
type Result struct{ N int }

// Impl is named by cmd/user. Nothing calls Do on it; cmd/user converts
// it to an interface of its own that requires Do.
type Impl struct{}

// Do is used through that conversion alone.
func (Impl) Do() {}
