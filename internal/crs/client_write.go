package crs

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"clare/internal/wal"
)

// Client write path. None of these calls goes through retryIdempotent:
// a write is NOT idempotent, and replaying one over a reconnect after a
// transport failure could apply it twice (the failure may have struck
// after the server logged the write but before the reply arrived). A
// transport error on a write therefore surfaces to the caller, who
// alone can decide whether to re-issue it.

// AssertNow appends one clause (source without final '.') outside any
// transaction — the WRITE wire command — returning the log sequence
// number the server assigned.
func (c *Client) AssertNow(clause string) (uint64, error) {
	return c.write("assert", clause)
}

// AssertWithTimeout is AssertNow under a per-call deadline override,
// mirroring RetrieveWithTimeout: every wire read/write of this one call
// is bounded by d instead of the client's global timeout (d <= 0 leaves
// the global timeout in force).
func (c *Client) AssertWithTimeout(clause string, d time.Duration) (uint64, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.AssertNow(clause)
}

// Retract removes the first clause unifying with the given clause
// (source without final '.'), returning the assigned log sequence
// number.
func (c *Client) Retract(clause string) (uint64, error) {
	return c.write("retract", clause)
}

// RetractWithTimeout is Retract under a per-call deadline override (see
// AssertWithTimeout).
func (c *Client) RetractWithTimeout(clause string, d time.Duration) (uint64, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.Retract(clause)
}

func (c *Client) write(op, clause string) (uint64, error) {
	resp, err := c.roundTrip("WRITE ", op, " ", clause, ".")
	if err != nil {
		return 0, err
	}
	seqText, ok := strings.CutPrefix(resp, "OK ")
	if !ok {
		return 0, fmt.Errorf("crs client: unexpected write reply %q", resp)
	}
	seq, err := strconv.ParseUint(seqText, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("crs client: bad write seq in %q", resp)
	}
	return seq, nil
}

// SyncLog pulls a suffix of the server's write-ahead log: up to the
// server's batch cap of records with seq >= from, plus the log's last
// seq. shard names the shard being synced (informational to a
// single-shard crsd, routing to a cluster front-end). Not retried: the
// caller (a follower loop) re-issues from its own watermark.
func (c *Client) SyncLog(shard int, from uint64) ([]wal.Record, uint64, error) {
	first, err := c.roundTrip("SYNC ", strconv.Itoa(shard), " ", strconv.FormatUint(from, 10))
	if err != nil {
		return nil, 0, err
	}
	rest, ok := strings.CutPrefix(first, "LOG ")
	nText, lastText, _ := strings.Cut(rest, " ")
	n, err1 := strconv.Atoi(nText)
	last, err2 := strconv.ParseUint(lastText, 10, 64)
	if !ok || err1 != nil || err2 != nil || n < 0 {
		return nil, 0, fmt.Errorf("crs client: unexpected sync reply %q", first)
	}
	recs := make([]wal.Record, 0, min(n, maxPrealloc))
	for i := 0; i < n; i++ {
		line, err := c.recv()
		if err != nil {
			return nil, 0, err
		}
		body, ok := strings.CutPrefix(line, "R ")
		if !ok {
			return nil, 0, fmt.Errorf("crs client: unexpected log line %q", line)
		}
		rec, err := wal.ParseRecordText(body)
		if err != nil {
			return nil, 0, fmt.Errorf("crs client: %w", err)
		}
		recs = append(recs, rec)
	}
	return recs, last, nil
}

// ReplWithTimeout is Repl under a per-call deadline override (see
// AssertWithTimeout).
func (c *Client) ReplWithTimeout(rec wal.Record, d time.Duration) (uint64, error) {
	if d > 0 {
		c.callTimeout = d
		defer func() { c.callTimeout = 0 }()
	}
	return c.Repl(rec)
}

// Repl lands one primary-sequenced record on the server (the REPL wire
// command), returning the server's applied watermark afterwards — the
// push half of log shipping. Not retried; the shipper's rewind protocol
// handles every delivery ambiguity.
func (c *Client) Repl(rec wal.Record) (uint64, error) {
	resp, err := c.roundTrip("REPL ", rec.WireText())
	if err != nil {
		return 0, err
	}
	appliedText, ok := strings.CutPrefix(resp, "OK ")
	if !ok {
		return 0, fmt.Errorf("crs client: unexpected repl reply %q", resp)
	}
	applied, err := strconv.ParseUint(appliedText, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("crs client: bad repl seq in %q", resp)
	}
	return applied, nil
}
