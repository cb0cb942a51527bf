// Package daemon provides the shared boot scaffolding for the framework's
// long-running processes (headnode, workernode, s3d): the standard
// observability flags, the live debug HTTP endpoint, SIGINT/SIGTERM
// handling, and trace/metrics flushing on shutdown. Keeping it in one place
// guarantees the three daemons expose identical operational surfaces.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/elastic"
	"repro/internal/obs"
)

// Flags holds the standard observability flags shared by every daemon.
// Register wires them into a FlagSet before flag parsing.
type Flags struct {
	DebugAddr   string
	TracePath   string
	MetricsPath string
}

// Register adds the -debug-addr, -trace, and -metrics flags to fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.DebugAddr, "debug-addr", "",
		"serve /healthz, /metrics, and /debug/pprof on this address (empty = off)")
	fs.StringVar(&f.TracePath, "trace", "",
		"write a Chrome trace-event JSON file here on exit (enables event tracing)")
	fs.StringVar(&f.MetricsPath, "metrics", "",
		"write a plain-text metrics snapshot here on exit")
}

// ElasticFlags holds the elastic-provisioning flags of a head-side daemon
// that admits one query: turn the arbiter on, cap the fleet, and give the
// query its deadline and budget.
type ElasticFlags struct {
	Elastic    bool
	Deadline   time.Duration
	Budget     float64
	MaxWorkers int
}

// Register adds the -elastic, -deadline, -budget and -elastic-max-workers
// flags to fs.
func (f *ElasticFlags) Register(fs *flag.FlagSet) {
	fs.BoolVar(&f.Elastic, "elastic", false,
		"admit dynamically provisioned worker sites and run the elastic burst arbiter")
	fs.DurationVar(&f.Deadline, "deadline", 0,
		"elastic: the query's deadline (0 = none)")
	fs.Float64Var(&f.Budget, "budget", 0,
		"elastic: the query's instance budget in dollars (0 = unlimited)")
	fs.IntVar(&f.MaxWorkers, "elastic-max-workers", 8,
		"elastic: maximum burst workers")
}

// Policy returns the elastic policy the flags give the daemon's query, or
// nil when neither -deadline nor -budget was set (the query then rides
// unpolicied and never justifies fleet growth).
func (f *ElasticFlags) Policy() *elastic.Policy {
	if f.Deadline <= 0 && f.Budget <= 0 {
		return nil
	}
	return &elastic.Policy{Deadline: f.Deadline, Budget: f.Budget, MaxWorkers: f.MaxWorkers}
}

// Runtime is one daemon's running observability scaffold.
type Runtime struct {
	Name string
	Obs  *obs.Obs
	Logf func(format string, args ...any)
	// DebugAddr is the debug endpoint's resolved listen address (nil when
	// the endpoint is off) — useful with ":0" style flags.
	DebugAddr net.Addr

	flags Flags
	ctx   context.Context
	stop  context.CancelFunc
	dbg   *http.Server
}

// Start builds the runtime: it creates the Obs bundle (with tracing enabled
// when a trace path is configured), starts the debug HTTP endpoint,
// installs the SIGINT/SIGTERM handler, and logs the resolved startup
// configuration — every flag with its effective value, so a daemon's boot
// line records exactly what it ran with.
func Start(name string, f Flags, logf func(format string, args ...any)) (*Runtime, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	o := obs.New(nil)
	if f.TracePath != "" {
		o.Tracer.Enable()
	}
	r := &Runtime{Name: name, Obs: o, Logf: logf, flags: f}
	r.ctx, r.stop = signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if f.DebugAddr != "" {
		srv, addr, err := obs.ServeDebug(f.DebugAddr, o.Registry, o.Tracer)
		if err != nil {
			r.stop()
			return nil, fmt.Errorf("%s: debug endpoint: %w", name, err)
		}
		r.dbg, r.DebugAddr = srv, addr
		logf("%s: debug endpoint on http://%s (/healthz /metrics /debug/pprof)", name, addr)
	}
	logf("%s: config:%s", name, FormatConfig(flag.CommandLine))
	return r, nil
}

// Context is cancelled on the first SIGINT or SIGTERM (or when Close runs).
// Daemons select on it to trigger their graceful-shutdown path.
func (r *Runtime) Context() context.Context { return r.ctx }

// Close tears the runtime down: stops signal delivery, shuts down the debug
// server, and flushes the configured trace and metrics files. Intended to
// run exactly once on every exit path; later errors don't mask earlier ones.
func (r *Runtime) Close() error {
	r.stop()
	var first error
	if r.dbg != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := r.dbg.Shutdown(ctx); err != nil && first == nil {
			first = err
		}
		cancel()
		r.dbg = nil
	}
	if err := r.Flush(); err != nil && first == nil {
		first = err
	}
	return first
}

// Flush writes the trace and metrics files configured at startup. Called by
// Close; exposed for daemons that want a snapshot mid-run.
func (r *Runtime) Flush() error {
	var first error
	write := func(path, what string, fn func(io.Writer) error) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err == nil {
			err = fn(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			r.Logf("%s: writing %s: %v", r.Name, what, err)
			if first == nil {
				first = err
			}
			return
		}
		r.Logf("%s: wrote %s to %s", r.Name, what, path)
	}
	write(r.flags.TracePath, "trace", r.Obs.Tracer.WriteJSON)
	write(r.flags.MetricsPath, "metrics snapshot", r.Obs.Registry.WriteText)
	return first
}

// FormatConfig renders every registered flag with its resolved value, in
// flag-registration (alphabetical) order: " -a=1 -b=x …".
func FormatConfig(fs *flag.FlagSet) string {
	var b strings.Builder
	fs.VisitAll(func(fl *flag.Flag) {
		fmt.Fprintf(&b, " -%s=%s", fl.Name, fl.Value.String())
	})
	return b.String()
}
