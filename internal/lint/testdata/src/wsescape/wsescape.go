// Package wsescape is the golden fixture for the wsescape analyzer:
// every way a workspace-owned *core.Result can outlive its workspace,
// next to the Clone/copy/consume idioms that must stay allowed. Unlike
// the syntactic fixtures it imports the real engine packages — the
// analyzer keys on core.RunWS / fast.RunWS / Workspace.StartRun
// signatures, not on mirrored shapes.
package wsescape

import (
	"rrnorm/internal/core"
	"rrnorm/internal/fast"
	"rrnorm/internal/policy"
)

// cache is the retention target: fields outlive any single run.
type cache struct {
	res   *core.Result
	flows []float64
	all   []*core.Result
	byID  map[int]*core.Result
	total float64
	err   error
}

// sink is a package-level escape hatch.
var sink *core.Result

// consume stands for any synchronous reducer: passing a live result to
// it is consumption, not escape.
func consume(r *core.Result) float64 {
	t := 0.0
	for _, f := range r.Flow {
		t += f
	}
	return t
}

// storeEverywhere exercises every store-shaped escape of a live result.
func (c *cache) storeEverywhere(in *core.Instance, ws *core.Workspace) {
	opts := core.Options{}
	res, err := core.RunWS(in, policy.NewRR(), opts, ws)
	c.err = err // the error return (slot 1) is not workspace-owned
	if err != nil {
		return
	}
	c.res = res                                // want "stores workspace-owned res into c.res"
	c.flows = res.Flow                         // want "stores workspace-owned res.Flow into c.flows"
	c.all = append(c.all, res)                 // want "stores workspace-owned append.c.all, res. into c.all"
	c.byID[0] = res                            // want "stores workspace-owned res into c.byID.0. .container element."
	sink = res                                 // want "stores workspace-owned res into sink"
	c.total = res.Flow[0]                      // scalar read: allowed
	c.flows = append(c.flows[:0], res.Flow...) // spread copy into own backing: allowed
	c.res = res.Clone()                        // Clone launders: allowed
	_ = res                                    // blank: allowed
	c.total = consume(res)                     // synchronous consumption: allowed
}

// viaFast seeds from the fast engine and through local aliases.
func (c *cache) viaFast(in *core.Instance, ws *core.Workspace) {
	res, _ := fast.RunWS(in, policy.NewRR(), core.Options{}, ws)
	alias := res         // local alias: tracked, not an escape
	tail := res.Flow[1:] // reslice of owned memory: tracked
	c.res = alias        // want "stores workspace-owned alias into c.res"
	c.flows = tail       // want "stores workspace-owned tail into c.flows"
}

// cloneKillsTaint shows the lattice is flow-sensitive: after the local is
// reassigned to a Clone, storing it is fine.
func (c *cache) cloneKillsTaint(in *core.Instance, ws *core.Workspace) {
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	res = res.Clone()
	c.res = res // reassigned to a deep copy above: allowed
}

// sendAndSpawn exercises the channel-send and goroutine escapes.
func sendAndSpawn(in *core.Instance, ws *core.Workspace, ch chan *core.Result) {
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	ch <- res   // want "sends workspace-owned res on a channel"
	go func() { // want "goroutine in sendAndSpawn captures workspace-owned res"
		consume(res)
	}()
	_ = res
}

// spawnFlagged pins the goroutine diagnostics to the launch line.
func spawnFlagged(in *core.Instance, ws *core.Workspace) {
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	go consumeAsync(res) // want "goroutine in spawnFlagged receives workspace-owned res"
	go func() {          // want "goroutine in spawnFlagged captures workspace-owned res"
		consume(res)
	}()
	go consumeAsync(res.Clone()) // Clone first: allowed
	cl := res.Clone()
	go func() { consume(cl) }() // captures the clone: allowed
}

func consumeAsync(r *core.Result) { consume(r) }

// returnPastPut releases the workspace with a deferred PutWorkspace and
// then returns the pooled result.
func returnPastPut(in *core.Instance) *core.Result {
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	res, err := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	if err != nil {
		return nil
	}
	return res // want "returns workspace-owned res past core.PutWorkspace"
}

// returnAfterSequentialPut releases on the straight-line path before the
// return statement.
func returnAfterSequentialPut(in *core.Instance) []float64 {
	ws := core.GetWorkspace()
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	flow := res.Flow
	core.PutWorkspace(ws)
	return flow // want "returns workspace-owned flow past core.PutWorkspace"
}

// returnCloned is the sanctioned shape of returnPastPut.
func returnCloned(in *core.Instance) *core.Result {
	ws := core.GetWorkspace()
	defer core.PutWorkspace(ws)
	res, err := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	if err != nil {
		return nil
	}
	return res.Clone() // deep copy: allowed
}

// returnWithWorkspaceAlive transfers ownership to the caller along with
// the workspace — no PutWorkspace, no violation.
func returnWithWorkspaceAlive(in *core.Instance, ws *core.Workspace) *core.Result {
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, ws)
	return res
}

// privateWorkspace passes nil: the engine allocates a private workspace
// and the caller owns the result outright.
func privateWorkspace(c *cache, in *core.Instance) {
	res, _ := core.RunWS(in, policy.NewRR(), core.Options{}, nil)
	c.res = res // caller-owned (nil workspace): allowed
}

// startRunSeed seeds from the Workspace.StartRun entry point directly.
func startRunSeed(c *cache, in *core.Instance) {
	ws := core.GetWorkspace()
	res, err := ws.StartRun(in, "rr", core.Options{})
	if err == nil {
		c.res = res // want "stores workspace-owned res into c.res"
	}
	core.PutWorkspace(ws)
}

// shardShape is batch.RunSharded's shape: the result of ws.StartRun is
// returned while only a different, per-worker workspace goes back to the
// pool, in a deferred closure. The release that matters is ws's, and it
// never happens here: allowed.
func shardShape(in *core.Instance, ws *core.Workspace) (*core.Result, error) {
	res, err := ws.StartRun(in, "SRPT+shard", core.Options{})
	if err != nil {
		return nil, err
	}
	wss := make([]*core.Workspace, 2)
	defer func() {
		for _, w := range wss {
			if w != nil {
				core.PutWorkspace(w)
			}
		}
	}()
	wsw := core.GetWorkspace()
	wss[0] = wsw
	sRes, err := fast.RunWS(in, policy.NewRR(), core.Options{}, wsw)
	if err != nil {
		return nil, err
	}
	res.Events = sRes.Events
	return res, nil
}
