// Command paradigmd serves the PARADIGM pipeline as a long-running,
// multi-tenant scheduling service. The job machine — HTTP API, admission,
// coalescing, the durable job journal, cluster mode — is package
// internal/service. This command turns the flags into one
// service.Config, resolves the one machine backend every job runs on
// (-machine: a calibration's training-sets fits for cm5 and paragon, the
// analytical model for any other builtin name or machine-spec file), and
// serves until SIGTERM/SIGINT drains it: accepted jobs finish, new ones
// are refused, then the listener shuts down. -pprof serves
// net/http/pprof on a listener of its own, never on the job API's.
//
//	paradigmd -addr :8080 -workers 2 -queue 16 -checkpoint-dir /var/lib/paradigm -policy policy.json
//	paradigmd -smoke   # self-contained start/submit/poll/drain cycle
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"paradigm"
	"paradigm/internal/admission"
	"paradigm/internal/service"
)

// gcPercent is the collector setting main applies unless GOGC is set.
// A finished job retains a few kB, so the live heap is a few MB and the
// default of 100 collects every few hundred hot jobs; the heap of
// retained simulator results that used to space collections out by
// accident is gone, so the spacing is asked for.
const gcPercent = 400

func main() {
	var o runOpts
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.IntVar(&o.workers, "workers", 2, "concurrent pipeline workers")
	flag.IntVar(&o.svc.QueueCap, "queue", 16, "bounded submit queue size (full: 429)")
	flag.StringVar(&o.svc.CheckpointDir, "checkpoint-dir", "", "directory for the durable job journals and per-job write-ahead checkpoint logs (empty: no durability)")
	flag.StringVar(&o.machine, "machine", "cm5", "machine: a builtin name (cm5, paragon, cm5-hetero8, paragon-memcap8) or a path to a machine-spec JSON file")
	flag.DurationVar(&o.svc.StageBudget, "stage-budget", 0, "per-stage deadline applied to every pipeline stage (0: unbounded)")
	flag.StringVar(&o.svc.WALRetain, "wal-retain", "failed", "per-job WALs kept after a terminal state: all, failed (postmortem default), or none")
	flag.StringVar(&o.policyPath, "policy", "", "admission policy config JSON (tenants, SLO classes, queue discipline; empty: unlimited FCFS)")
	flag.IntVar(&o.svc.ClusterProcs, "cluster-procs", 0, "cluster mode: run jobs on partitions of one shared processor pool of this size (0: off)")
	flag.IntVar(&o.svc.ClusterFaults, "cluster-faults", 0, "cluster mode: kill one partition processor on every Nth placement; the job recovers onto survivors and the processor retires from the pool (0: none)")
	flag.BoolVar(&o.smoke, "smoke", false, "start, run one job end to end, drain, and exit (CI smoke mode)")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address, on a listener separate from -addr (empty: off)")
	flag.Parse()
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(gcPercent)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "paradigmd:", err)
		os.Exit(1)
	}
}

// runOpts is the service's resolved command line: the server's settings
// in svc, and what only the command needs around them.
type runOpts struct {
	addr, machine, policyPath, pprofAddr string
	workers                              int
	smoke                                bool
	svc                                  service.Config
}

func run(o runOpts) error {
	if o.workers < 1 {
		return fmt.Errorf("need at least one worker")
	}
	if o.policyPath != "" {
		data, err := os.ReadFile(o.policyPath)
		if err != nil {
			return fmt.Errorf("-policy %s: %w", o.policyPath, err)
		}
		if o.svc.Policy, err = admission.Decode(data); err != nil {
			return fmt.Errorf("-policy %s: %w", o.policyPath, err)
		}
	}
	mach, err := machineBackend(o.machine)
	if err != nil {
		return err
	}
	srv, err := service.New(mach, o.svc)
	if err != nil {
		return err
	}
	if o.svc.ClusterProcs > 0 {
		log.Printf("cluster mode: %d-processor pool, fault every %d placements",
			o.svc.ClusterProcs, o.svc.ClusterFaults)
	}
	srv.Start(o.workers)

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			return fmt.Errorf("-pprof %s: %w", o.pprofAddr, err)
		}
		// Closing the listener ends Serve; a profile in flight is cut off
		// with the process, which is what an operator stopping it expects.
		defer pln.Close()
		go func() { _ = http.Serve(pln, pprofHandler()) }()
		log.Printf("pprof listening on %s", pln.Addr())
	}
	log.Printf("paradigmd listening on %s (%d workers, queue %d, %d jobs recovered)",
		ln.Addr(), o.workers, srv.QueueCap(), srv.Backlog())

	if o.smoke {
		machInfo := fmt.Sprintf("paradigmd_machine_info{name=%q,kind=%q} 1", mach.Name(), mach.Kind())
		if err := smokeCycle(ln.Addr().String(), machInfo); err != nil {
			return fmt.Errorf("smoke: %w", err)
		}
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
		select {
		case s := <-sig:
			log.Printf("received %v: draining", s)
		case err := <-serveErr:
			return err
		}
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	<-serveErr
	if o.smoke {
		fmt.Println("smoke ok: submitted, completed, fetched schedule and metrics, drained")
	} else {
		log.Printf("drained %d jobs, exiting", srv.Completed())
	}
	return nil
}

// machineBackend resolves -machine. The two classic profiles take the
// training-sets backend of a calibration on their 64-processor profile;
// any other builtin name or spec file resolves to the analytical one.
func machineBackend(name string) (paradigm.MachineBackend, error) {
	var profile func(int) paradigm.Machine
	switch name {
	case "cm5":
		profile = paradigm.NewCM5
	case "paragon":
		profile = paradigm.NewParagon
	default:
		return paradigm.ResolveMachine(name)
	}
	cal, err := paradigm.CalibrateContext(context.Background(), profile(64))
	if err != nil {
		return nil, err
	}
	return paradigm.NewTrainedMachine(cal), nil
}

// pprofHandler serves the net/http/pprof endpoints from a mux of its
// own, so importing the package never puts them on the job API.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
