// Package a is a fixture for the dead-export rule in layout_test.go.
package a

// Dead is called only from this file and from a test: reported.
func Dead() {}

func init() { Dead() }

// Allowed is used nowhere but is on the allow-list: not reported.
func Allowed() {}

// T is an exported type.
type T struct{}

// Used is called only from another file: not reported.
func (T) Used() {}

// String is called by fmt, never by name: not reported.
func (T) String() string { return "T" }
