package cluster

// conn.go: the redialing net/rpc client both cluster halves use — the
// coordinator for Shard RPCs to workers, workers for Register/Heartbeat
// RPCs to the coordinator.

import (
	"context"
	"fmt"
	"net/rpc"
	"sync"

	"partminer/internal/exec"
)

// Conn is one managed worker connection: it dials lazily, and a call
// that fails at the connection level (rpc.ErrShutdown after the worker
// restarts, a dropped TCP session, a gob decode error) discards the dead
// client so the next use redials instead of failing forever. Successful
// redials are counted as "remote.redial". Safe for concurrent use —
// net/rpc clients multiplex concurrent calls over one connection.
type Conn struct {
	// Addr is the worker's "host:port" address.
	Addr string

	mu        sync.Mutex
	client    *rpc.Client
	connected bool // a dial has succeeded at least once (redial accounting)
}

// NewConn returns a lazily dialing connection to addr; the first Call
// establishes the TCP session.
func NewConn(addr string) *Conn { return &Conn{Addr: addr} }

// get returns the live client, dialing when none is held. A successful
// dial after a previous session counts as remote.redial on o.
func (c *Conn) get(o exec.Observer) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client != nil {
		return c.client, nil
	}
	client, err := rpc.Dial("tcp", c.Addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", c.Addr, err)
	}
	if c.connected {
		exec.Count(o, "remote.redial", 1)
	}
	c.client = client
	c.connected = true
	return client, nil
}

// drop discards client if it is still the held one, so exactly one
// goroutine pays for the close and concurrent callers do not discard a
// fresh replacement.
func (c *Conn) drop(client *rpc.Client) {
	c.mu.Lock()
	if c.client == client {
		c.client = nil
	}
	c.mu.Unlock()
	client.Close()
}

// Close releases the held connection (a later Call would redial).
func (c *Conn) Close() error {
	c.mu.Lock()
	client := c.client
	c.client = nil
	c.mu.Unlock()
	if client == nil {
		return nil
	}
	return client.Close()
}

// connError reports whether an RPC error is connection-level (the
// session is unusable and should be redialed) rather than a service
// error the worker itself returned.
func connError(err error) bool {
	if err == nil {
		return false
	}
	_, serviceErr := err.(rpc.ServerError)
	return !serviceErr
}

// Call runs one RPC under ctx: cancellation abandons the in-flight call,
// a connection-level failure redials once and retries, and every attempt
// is counted as "remote.rpc" on o. Service errors (the worker ran the
// method and returned an error) are returned as-is without touching the
// session.
func (c *Conn) Call(ctx context.Context, method string, args, reply any, o exec.Observer) error {
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		client, err := c.get(o)
		if err != nil {
			// Dialing failed; nothing held to drop, and a second dial in
			// the same call would fail identically.
			return err
		}
		exec.Count(o, "remote.rpc", 1)
		done := client.Go(method, args, reply, make(chan *rpc.Call, 1))
		select {
		case <-ctx.Done():
			// net/rpc cannot interrupt an in-flight request; the worker
			// stops on its own when the shipped deadline expires.
			return ctx.Err()
		case call := <-done.Done:
			if call.Error == nil {
				return nil
			}
			if !connError(call.Error) {
				return call.Error
			}
			c.drop(client)
			lastErr = call.Error
		}
	}
	return lastErr
}
