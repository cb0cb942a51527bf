package cluster

import (
	"context"
	"fmt"
	"sync"
)

// Worker is one elastically launched cluster agent. It runs until the head
// drains it (clean exit), its context is canceled, or it fails.
type Worker struct {
	site string // name, for logs
	id   int
	done chan struct{}

	mu  sync.Mutex
	err error
}

// Site returns the worker's site ID.
func (w *Worker) Site() int { return w.id }

// Done closes when the worker's agent loop has returned.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Err returns the agent loop's exit error; nil means a clean exit (drain or
// head shutdown). Valid after Done closes.
func (w *Worker) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Launcher provisions cluster workers on demand — the elastic arbiter's
// actuator. Launch must register the worker with the head at the given site
// ID and start its agent loop; the worker departs when the head drains the
// site (or ctx is canceled).
type Launcher interface {
	Launch(ctx context.Context, site int, name string) (*Worker, error)
}

// AgentLauncher launches in-process multi-query agents (RunAgent goroutines)
// from a shared template — the live implementation of Launcher. Burst
// workers host no data of their own: the template's Sources/SourceBuilder
// describes how a new worker reaches every data site, and every job it runs
// is stolen work.
type AgentLauncher struct {
	// Template is copied per launch; Site and Name are overridden. Head is
	// used as-is unless Connect is set.
	Template AgentConfig
	// Connect, when set, opens a fresh head session per worker (e.g. a new
	// TCP connection from DialAgent); when nil every worker shares
	// Template.Head, which must then be safe for concurrent sessions (the
	// in-process client is).
	Connect func() (QueryClient, error)
}

// Launch implements Launcher.
func (l *AgentLauncher) Launch(ctx context.Context, site int, name string) (*Worker, error) {
	cfg := l.Template
	cfg.Site = site
	cfg.Name = name
	if l.Connect != nil {
		hc, err := l.Connect()
		if err != nil {
			return nil, fmt.Errorf("cluster: launching %s: %w", name, err)
		}
		cfg.Head = hc
	}
	if cfg.Head == nil {
		return nil, fmt.Errorf("cluster: launching %s: no head client (set Template.Head or Connect)", name)
	}
	w := &Worker{site: name, id: site, done: make(chan struct{})}
	go func() {
		err := RunAgent(ctx, cfg)
		w.mu.Lock()
		w.err = err
		w.mu.Unlock()
		close(w.done)
	}()
	return w, nil
}
