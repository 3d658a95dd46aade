// Package lockcopy holds the by-value lock copies that go vet's
// copylocks pass must flag. atomlint leaves them to vet; the lintkit
// tests run vet over this file in a scratch module and match each
// finding against its want marker.
package lockcopy

import (
	"sync"
	"sync/atomic"
)

// S is a lock-bearing type: any by-value copy of it is a finding.
type S struct {
	mu sync.Mutex
	n  int
}

// Striped mirrors the striped-lock table shape: the lock sits two
// levels deep, through an array of structs.
type Striped struct {
	shards [4]S
}

func byValueParam(s S) int { // want "byValueParam passes lock by value"
	return s.n
}

func (s S) byValueMethod() int { // want "byValueMethod passes lock by value"
	return s.n
}

func stripedParam(t Striped) int { // want "stripedParam passes lock by value"
	return t.shards[0].n
}

func copyAssign(a *S) int {
	b := *a // want "assignment copies lock value"
	return b.n
}

func rangeCopy(ss []S) int {
	n := 0
	for _, s := range ss { // want "range var s copies lock"
		n += s.n
	}
	return n
}

func atomicParam(c atomic.Int64) int64 { // want "atomicParam passes lock by value"
	return c.Load()
}

func pointerParamOK(s *S) int {
	return s.n
}

var _ = []any{byValueParam, S.byValueMethod, stripedParam, copyAssign, rangeCopy, atomicParam, pointerParamOK}
