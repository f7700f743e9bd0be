// Package testutil is test support: its exports serve tests by design.
package testutil

func Helper() {} // want:none
