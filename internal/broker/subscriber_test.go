package broker

import (
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSubscriberBackoffJittered drives two subscribers against a broker
// that is never up and reads their reconnect delays back from the
// "retrying in" log lines: every delay must land in [d/2, d] of the
// doubling schedule, and the two schedules must differ — a broker
// restart must not make its subscribers redial in lockstep.
func TestSubscriberBackoffJittered(t *testing.T) {
	const maxAttempts = 6
	run := func(member string) []time.Duration {
		var delays []time.Duration
		sub, err := NewSubscriber(SubscriberConfig{
			Group:       "g",
			Member:      member,
			Dial:        func(ctx context.Context) (net.Conn, error) { return nil, errors.New("broker down") },
			Backoff:     2 * time.Millisecond,
			MaxBackoff:  16 * time.Millisecond,
			MaxAttempts: maxAttempts,
			Logf: func(format string, args ...any) {
				line := fmt.Sprintf(format, args...)
				i := strings.LastIndex(line, "retrying in ")
				if i < 0 {
					t.Errorf("unexpected log line %q", line)
					return
				}
				d, err := time.ParseDuration(line[i+len("retrying in "):])
				if err != nil {
					t.Errorf("log line %q: %v", line, err)
					return
				}
				delays = append(delays, d)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := sub.Run(ctx); err == nil {
			t.Fatal("subscriber against a dead broker returned nil")
		}
		return delays
	}

	a, b := run("m1"), run("m2")
	base := []time.Duration{2, 4, 8, 16, 16}
	for _, got := range [][]time.Duration{a, b} {
		if len(got) != maxAttempts-1 {
			t.Fatalf("logged %d retries, want %d: %v", len(got), maxAttempts-1, got)
		}
		for i, d := range got {
			hi := base[i] * time.Millisecond
			if d < hi/2 || d > hi {
				t.Errorf("retry %d waited %v, outside the jitter window [%v, %v]", i, d, hi/2, hi)
			}
		}
	}
	if reflect.DeepEqual(a, b) {
		t.Errorf("two subscribers chose the identical schedule %v: retries are in lockstep", a)
	}
}
