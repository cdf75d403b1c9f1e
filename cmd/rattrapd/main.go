// Command rattrapd runs the Rattrap cloud platform as a real TCP server
// speaking the offload wire protocol. Virtual platform time (container
// boots, execution) is paced against the wall clock; -speed scales it for
// demos (e.g. -speed 10 makes a 30 s VM boot take 3 s).
//
// The daemon runs the serving preset (core.ServingConfig): under -platform
// rattrap later boots COW-clone the first one's captured template, and
// each shard rejects a request with a retry-after hint once 2 x
// -max-runtimes requests wait for a runtime. The paper's experiments run
// the paper preset in simulation (rattrap-bench); neither mechanism has a
// switch of its own.
//
// With -http the daemon also serves an observability endpoint:
// GET /metrics (plain text; ?format=json for JSON; ?hist=NAME&q=0.99 for
// one quantile) and the standard /debug/pprof profiles.
//
// Usage:
//
//	rattrapd [-listen :7431] [-platform rattrap|rattrap-wo|vm] [-speed 1] [-max-runtimes 5] [-autoscale [-min-runtimes 1]] [-http :7432] [-pipeline-depth 8] [-shards 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"

	"rattrap/internal/core"
	"rattrap/internal/obs"
	"rattrap/internal/realtime"
)

func main() {
	listen := flag.String("listen", ":7431", "listen address")
	platform := flag.String("platform", "rattrap", "platform kind: rattrap, rattrap-wo or vm")
	speed := flag.Float64("speed", 1, "virtual-time speedup factor")
	maxRuntimes := flag.Int("max-runtimes", 5, "runtime pool cap; each shard queues up to twice this many requests")
	minRuntimes := flag.Int("min-runtimes", 0, "runtime pool floor under -autoscale (0 = scale to zero)")
	autoscale := flag.Bool("autoscale", false, "run the elastic pool control loop per shard (grow/shrink between -min-runtimes and -max-runtimes from queue pressure)")
	httpAddr := flag.String("http", "", "observability listen address (/metrics, /debug/pprof); empty disables")
	pipelineDepth := flag.Int("pipeline-depth", 1, "exec requests one connection may have in flight (1 = serial)")
	shards := flag.Int("shards", 1, "platform shards; apps are consistent-hashed across shards by AID")
	flag.Parse()

	kind, ok := core.KindByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "rattrapd: unknown platform %q\n", *platform)
		os.Exit(2)
	}

	// A floor is the autoscaler's and must fit under the ceiling; reject
	// one that would be ignored or clamped.
	if *minRuntimes != 0 && !*autoscale {
		fmt.Fprintln(os.Stderr, "rattrapd: -min-runtimes requires -autoscale")
		os.Exit(2)
	}
	if *minRuntimes > *maxRuntimes {
		fmt.Fprintf(os.Stderr, "rattrapd: -min-runtimes %d exceeds -max-runtimes %d\n", *minRuntimes, *maxRuntimes)
		os.Exit(2)
	}

	cfg := core.ServingConfig(kind)
	cfg.MaxRuntimes = *maxRuntimes
	cfg.MinRuntimes = *minRuntimes
	cfg.Autoscale = *autoscale
	logger := log.New(os.Stderr, "rattrapd: ", log.LstdFlags)
	srv := realtime.NewServerOpts(cfg, *speed, logger, realtime.Options{
		PipelineDepth: *pipelineDepth,
		Shards:        *shards,
	})
	defer srv.Close()

	if *httpAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(srv.Metrics()))
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		hln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			logger.Fatal(err)
		}
		logger.Printf("observability on http://%s/metrics (+ /debug/pprof)", hln.Addr())
		go func() {
			if err := http.Serve(hln, mux); err != nil {
				logger.Printf("observability server: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("%s platform listening on %s (speed %.1fx, pool %d, shards %d)",
		kind, ln.Addr(), *speed, *maxRuntimes, srv.Cluster().Shards())
	if err := srv.Serve(ln); err != nil {
		logger.Fatal(err)
	}
}
