package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// handleEvents streams a session's progress history and live events as
// server-sent events. Each event is either
//
//	event: progress
//	data: {"phase":"sampled","cycle":1,...}
//
// or the terminal
//
//	event: done
//	data: {"job":"j1","state":"ready","code":200}
//
// The full history is replayed first, so a late subscriber still sees
// every cycle of the current job; the replay goes out in one flush, and
// each live event in one flush of its own. The stream ends after the
// done event of the job in flight (or immediately after replay when no
// job is running), or when the client disconnects.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.getSession(w, r)
	if !ok {
		return
	}
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		writeError(w, http.StatusInternalServerError, "response writer does not support streaming")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, ch, inFlight := sess.subscribe()
	defer sess.unsubscribe(ch)

	write := func(ev event) bool {
		blob, err := json.Marshal(ev.data)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, blob)
		return err == nil
	}

	for _, ev := range replay {
		if !write(ev) {
			return
		}
	}
	flusher.Flush()
	if !inFlight {
		return
	}
	for {
		select {
		case ev := <-ch:
			if !write(ev) {
				return
			}
			flusher.Flush()
			if ev.name == "done" {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
