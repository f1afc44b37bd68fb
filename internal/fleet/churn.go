package fleet

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"colormatch/internal/core"
	"colormatch/internal/wei"
)

// ChurnEvent schedules one kill/restart of a churn-pool cell: cell Cell is
// killed At after the run starts and restarted Downtime later (Downtime 0
// kills it for good).
type ChurnEvent struct {
	Cell     int
	At       time.Duration
	Downtime time.Duration
}

// ParseChurn parses a churn schedule of the form
//
//	"0@500ms+700ms,1@2s+1s"
//
// — kill cell 0 at t=500ms and restart it 700ms later, kill cell 1 at t=2s
// and restart it 1s later. Omitting "+downtime" kills the cell permanently.
func ParseChurn(spec string) ([]ChurnEvent, error) {
	var events []ChurnEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		cellStr, rest, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("fleet: churn event %q: want cell@killAt[+downtime]", part)
		}
		cell, err := strconv.Atoi(strings.TrimSpace(cellStr))
		if err != nil || cell < 0 {
			return nil, fmt.Errorf("fleet: churn event %q: bad cell index %q", part, cellStr)
		}
		atStr, downStr, hasDown := strings.Cut(rest, "+")
		at, err := time.ParseDuration(strings.TrimSpace(atStr))
		if err != nil {
			return nil, fmt.Errorf("fleet: churn event %q: bad kill time: %w", part, err)
		}
		ev := ChurnEvent{Cell: cell, At: at}
		if hasDown {
			if ev.Downtime, err = time.ParseDuration(strings.TrimSpace(downStr)); err != nil {
				return nil, fmt.Errorf("fleet: churn event %q: bad downtime: %w", part, err)
			}
		}
		events = append(events, ev)
	}
	return events, nil
}

// churnCell is one in-process workcell HTTP server the pool can kill and
// restart without losing its address: the listener stays open, but while
// down every connection is severed before the handler runs — from the
// fleet's side exactly a crashed device computer at a stable host:port.
type churnCell struct {
	srv      *http.Server
	ws       *wei.WorkcellServer
	url      string
	down     atomic.Bool
	actions  atomic.Int64
	deaths   atomic.Int64
	killAt   atomic.Int64 // kill when actions crosses this count (0 = never)
	actDelay time.Duration
}

// ChurnPool runs N in-process simulated workcells behind real HTTP servers
// (127.0.0.1 listeners, like cmd/workcell instances) and can kill and
// restart each one on command or on a schedule — the canonical harness for
// the churning-fleet benchmark and the re-admission tests.
type ChurnPool struct {
	opts  ChurnPoolOptions
	cells []*churnCell
	wg    sync.WaitGroup
}

// ChurnPoolOptions configure a ChurnPool.
type ChurnPoolOptions struct {
	// Cells is the pool size N (required, >= 1).
	Cells int
	// Seed derives each cell's simulated-workcell seed.
	Seed int64
	// ActDelay adds a real-time pause to every action command, slowing
	// virtual-clock campaigns down to something a churn schedule's real-time
	// kills can land inside. Zero for full speed.
	ActDelay time.Duration
}

// NewChurnPool starts the pool's servers. Callers own Close.
func NewChurnPool(opts ChurnPoolOptions) (*ChurnPool, error) {
	if opts.Cells < 1 {
		return nil, fmt.Errorf("fleet: churn pool needs at least one cell")
	}
	p := &ChurnPool{opts: opts}
	for i := 0; i < opts.Cells; i++ {
		c, err := p.startCell(i)
		if err != nil {
			p.Close()
			return nil, err
		}
		p.cells = append(p.cells, c)
	}
	return p, nil
}

func (p *ChurnPool) startCell(i int) (*churnCell, error) {
	wcOpts := core.WorkcellOptions{Seed: p.opts.Seed + int64(1000*(i+1))}
	ws := wei.NewWorkcellServer(core.NewSimWorkcell(wcOpts).Registry, wei.ServerOptions{
		Reset: func() (*wei.Registry, error) {
			return core.NewSimWorkcell(wcOpts).Registry, nil
		},
		Caps: wei.Capabilities{Lanes: 1, OT2s: 1, Camera: true},
	})
	c := &churnCell{ws: ws, actDelay: p.opts.ActDelay}
	inner := ws.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if c.down.Load() {
			panic(http.ErrAbortHandler)
		}
		if strings.HasSuffix(r.URL.Path, "/action") {
			n := c.actions.Add(1)
			if kill := c.killAt.Load(); kill > 0 && n >= kill {
				c.killAt.Store(0)
				c.down.Store(true)
				c.deaths.Add(1)
				panic(http.ErrAbortHandler)
			}
			if c.actDelay > 0 {
				select {
				case <-r.Context().Done():
				case <-time.After(c.actDelay):
				}
			}
		}
		inner.ServeHTTP(w, r)
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: churn pool listen: %w", err)
	}
	c.url = "http://" + ln.Addr().String()
	c.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		_ = c.srv.Serve(ln)
	}()
	return c, nil
}

// Register adds every cell to the registry as a probed remote member named
// churnN, so kills demote to suspect and restarts re-admit.
func (p *ChurnPool) Register(reg *Registry, ropts RemoteOptions) error {
	for i, c := range p.cells {
		if _, err := reg.AddRemote(fmt.Sprintf("churn%d", i), c.url, ropts); err != nil {
			return err
		}
	}
	return nil
}

// Kill severs cell i now: every in-flight and future request aborts until
// Restart.
func (p *ChurnPool) Kill(i int) {
	c := p.cells[i]
	if !c.down.Swap(true) {
		c.deaths.Add(1)
	}
}

// KillAfterActions arms cell i to die when it has served n more action
// commands — a deterministic mid-campaign crash.
func (p *ChurnPool) KillAfterActions(i int, n int64) {
	c := p.cells[i]
	c.killAt.Store(c.actions.Load() + n)
}

// Restart brings cell i back up. The server keeps its address; its state is
// whatever the last session left (the fleet's per-campaign reset
// re-provisions it before the next campaign).
func (p *ChurnPool) Restart(i int) {
	p.cells[i].down.Store(false)
}

// Deaths reports how many times cell i died.
func (p *ChurnPool) Deaths(i int) int64 { return p.cells[i].deaths.Load() }

// Schedule applies churn events against the run's start time, returning a
// stop function that cancels pending kills/restarts (restarts any cell a
// canceled event left down is the caller's business — Close kills all
// anyway).
func (p *ChurnPool) Schedule(events []ChurnEvent) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, ev := range events {
		if ev.Cell < 0 || ev.Cell >= len(p.cells) {
			continue
		}
		wg.Add(1)
		go func(ev ChurnEvent) {
			defer wg.Done()
			select {
			case <-ctx.Done():
				return
			case <-time.After(ev.At):
			}
			p.Kill(ev.Cell)
			if ev.Downtime <= 0 {
				return
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(ev.Downtime):
			}
			p.Restart(ev.Cell)
		}(ev)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// Close shuts every server down.
func (p *ChurnPool) Close() {
	for _, c := range p.cells {
		c.down.Store(true)
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = c.srv.Shutdown(ctx)
		cancel()
		_ = c.srv.Close()
	}
	p.wg.Wait()
}
