// Command portal serves the data portal (the reproduction of the ACDC
// portal in the paper's Figure 3): applications publish experiment records
// to it over HTTP, and users query summaries and run details back.
//
//	portal -listen :2100
//	portal -listen :2100 -data ./portal-data
//	portal -listen :2100 -data ./portal-data -compact-segments 4
//
// Without -data the store is in-memory and dies with the process. With
// -data every accepted record is appended to a JSON segment log (with
// attachments in separate blob files) under the given directory and
// replayed on the next start, so the archive survives restarts; a record
// torn by a crash mid-append is dropped on replay. Replay decodes segments
// on all cores, and sealed segments are folded into a snapshot segment by
// background compaction once more than -compact-segments of them accumulate
// (0 disables compaction). See
// docs/PORTAL.md for the directory layout and the full endpoint reference.
//
// The portal also serves live event streaming: fleets POST step events to
// /events as campaigns run (cmd/fleet -stream) and watchers follow them on
// GET /watch (cmd/portalwatch, or the index page's live table). With -data
// the event stream is durable too (an events/ segment log under the data
// dir), so watch cursors survive a portal restart.
//
// Endpoints: POST /ingest/batch (the one record write, deduplicated by
// its X-Idempotency-Key header), POST /events, GET /search (with cursor
// pagination), GET /records/<id>, GET /experiments,
// GET /experiments/<name>/summary, GET /watch (SSE),
// GET /healthz. Records with their attachments (the ingest request and
// the GET /records/<id> response) travel as one multipart/form-data
// body: a "records" part holding the records' JSON, then one raw part per
// attachment named "<record index>/<attachment name>", so any client can
// upload with curl -F.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"colormatch/internal/portal"
)

func main() {
	listen := flag.String("listen", ":2100", "HTTP listen address")
	dataDir := flag.String("data", "", "durable data directory (segment log + blobs), replayed on startup; empty = in-memory only")
	compactSegs := flag.Int("compact-segments", 8, "background-compact the segment log once this many sealed segments accumulate; 0 disables")
	watchBuffer := flag.Int("watch-buffer", 256, "per-subscriber event buffer; a watcher this far behind is evicted")
	flag.Parse()

	var store *portal.Store
	hubOpts := portal.HubOptions{SubscriberBuffer: *watchBuffer}
	if *dataDir != "" {
		var err error
		store, err = portal.OpenStoreWith(*dataDir, portal.Options{AutoCompactSegments: *compactSegs})
		if err != nil {
			fatal(err)
		}
		hubOpts.Dir = filepath.Join(*dataDir, "events")
		fmt.Printf("portal: replayed %d record(s) from %s\n", store.Len(), *dataDir)
	} else {
		store = portal.NewStore()
	}
	hub, err := portal.OpenHub(hubOpts)
	if err != nil {
		fatal(err)
	}
	if hubOpts.Dir != "" {
		fmt.Printf("portal: event stream at seq %d\n", hub.LastSeq())
	}
	// Close on shutdown signals. (A deferred Close would never run:
	// ListenAndServe only returns on error and fatal os.Exits.) Every
	// batch is fsynced at append time, so nothing is lost even on a hard
	// kill; this just releases the log files cleanly and ends live watches.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		if err := hub.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "portal:", err)
		}
		store.Close()
		os.Exit(0)
	}()
	fmt.Printf("portal: listening on %s\n", *listen)
	if err := http.ListenAndServe(*listen, portal.Serve(store, portal.WithHub(hub))); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "portal:", err)
	os.Exit(1)
}
