// Package obs is a fixture stand-in for affidavit/internal/obs: the
// obsevent analyzer keys on the Sink type by package last-segment + name.
package obs

import "context"

// Event is one pipeline event.
type Event struct {
	Kind int
	Poll int
}

// Sink receives events.
type Sink func(Event)

type sinkKey struct{}

// FromContext returns the run's sink, or nil.
func FromContext(ctx context.Context) Sink {
	s, _ := ctx.Value(sinkKey{}).(Sink)
	return s
}
