package serve

import (
	"context"
	"net/http"
	"time"
)

// Hardening defaults. A zero field on the incoming server gets the
// default; an explicit setting is respected.
const (
	// DefaultReadHeaderTimeout bounds how long a connection may dribble
	// its request line + headers (slow-loris at the header layer).
	DefaultReadHeaderTimeout = 5 * time.Second
	// DefaultReadTimeout bounds the whole request read, body included.
	DefaultReadTimeout = 60 * time.Second
	// DefaultIdleTimeout reaps keep-alive connections between requests.
	DefaultIdleTimeout = 2 * time.Minute
	// DefaultMaxHeaderBytes caps header memory per connection.
	DefaultMaxHeaderBytes = 1 << 20
)

// Harden applies defensive defaults to an http.Server so an idle, slow or
// malicious client cannot pin one of its connections forever: header and
// read timeouts, keep-alive reaping, bounded header memory. WriteTimeout
// is deliberately left alone — a legitimate cold evaluation can take
// longer than any sane write timeout, and response writing is bounded by
// the per-request evaluation deadline instead. Returns srv for chaining.
func Harden(srv *http.Server) *http.Server {
	if srv.ReadHeaderTimeout == 0 {
		srv.ReadHeaderTimeout = DefaultReadHeaderTimeout
	}
	if srv.ReadTimeout == 0 {
		srv.ReadTimeout = DefaultReadTimeout
	}
	if srv.IdleTimeout == 0 {
		srv.IdleTimeout = DefaultIdleTimeout
	}
	if srv.MaxHeaderBytes == 0 {
		srv.MaxHeaderBytes = DefaultMaxHeaderBytes
	}
	return srv
}

// Shutdown drains srv gracefully under ctx's deadline — stop accepting,
// finish in-flight requests — and force-closes whatever remains when the
// deadline expires. The returned error is nil on a clean drain and ctx's
// error when the force-close path fired.
func Shutdown(ctx context.Context, srv *http.Server) error {
	err := srv.Shutdown(ctx)
	if err != nil {
		_ = srv.Close() // deadline passed: cut the stragglers
	}
	return err
}
