// Command topomapd is the mapping-as-a-service server: a long-running
// HTTP/JSON daemon that accepts a kernel (registry name or polyhedral
// source) plus a machine description and returns the computed mapping
// summary and predicted miss profile.
//
//	topomapd -listen 127.0.0.1:8723 -queue 64 -lru 1024
//
//	curl -s localhost:8723/v1/map -d '{"kernel":"galgel","machine":"nehalem","scheme":"combined"}'
//
// Endpoints:
//
//	POST /v1/map     evaluate (or serve from cache); JSON envelope response
//	GET  /healthz    liveness
//	GET  /readyz     readiness (503 once draining)
//	GET  /statusz    counters + degradation state (queue, shed, drain)
//
// Robustness is the point: bounded admission queue with watermark load
// shedding (cached results keep serving), per-request deadlines and cycle
// budgets, request coalescing into a bounded result LRU, panic-to-503
// containment, and a graceful SIGTERM/SIGINT drain bounded by
// -drain-timeout. See internal/serve and DESIGN.md "Serving and
// degradation".
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
	"repro/internal/serve"
)

func main() { os.Exit(run()) }

// run keeps main free of logic so the exit status is the only thing
// os.Exit skips.
func run() int {
	fs := flag.NewFlagSet("topomapd", flag.ExitOnError)
	sf := cli.AddServeFlags(fs)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		return fail(fmt.Errorf("unexpected argument %q", fs.Arg(0)))
	}

	srv, err := serve.New(sf.Options())
	if err != nil {
		return fail(err)
	}
	defer func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "topomapd: closing checkpoint:", cerr)
		}
	}()

	ln, err := net.Listen("tcp", *sf.Listen)
	if err != nil {
		return fail(err)
	}
	// The actual address, for -listen :0 callers (tests, smoke scripts).
	fmt.Printf("topomapd: listening on http://%s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	if err := srv.Serve(ctx, ln); err != nil {
		return fail(err)
	}
	fmt.Println("topomapd: drained cleanly")
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "topomapd:", err)
	return 1
}
