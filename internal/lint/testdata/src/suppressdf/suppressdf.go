// Package suppressdf exercises //rrlint:ignore semantics for the dataflow
// analyzers (wsescape, gocapture): statement-level directives on
// the diagnostic's line, function-level directives in doc comments, and
// unsuppressed siblings proving the directives are not over-broad. Driven
// by TestDataflowSuppression rather than want annotations.
package suppressdf

import (
	"rrnorm/internal/core"
	"rrnorm/internal/policy"
)

var sink *core.Result

// storeSuppressed: a statement-level directive silences exactly one
// wsescape store; the second store survives.
func storeSuppressed(in *core.Instance) {
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	//rrlint:ignore wsescape this cache hands ownership off and the pool is never repaid
	sink = res
	sink = res // survives: the directive above covers only its own line pair
}

// storeFuncLevel is wholesale exempt: the doc-comment directive covers
// both stores in the body.
//
//rrlint:ignore wsescape this helper owns the workspace cache by design
func storeFuncLevel(in *core.Instance) {
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	sink = res
	sink = res
}

// launchSuppressed: statement-level directive inside the closure silences
// the capture finding; the sibling goroutine below survives.
func launchSuppressed() int {
	x := 0
	go func() {
		//rrlint:ignore gocapture the write below is handshaked before the goroutine reads
		_ = x
	}()
	go func() { _ = x }() // survives
	x = 1
	return x
}

// launchFuncLevel is wholesale exempt via its doc comment.
//
//rrlint:ignore gocapture quarantined prototype; the race is the experiment
func launchFuncLevel() int {
	x := 0
	go func() { _ = x }()
	x = 1
	return x
}
