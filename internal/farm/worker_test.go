package farm

import (
	"context"
	"math/rand"
	"net"
	"reflect"
	"testing"
	"time"
)

// deadAddr binds and immediately closes a listener, yielding an
// address that refuses connections for the rest of the test.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// recordBackoffs runs a worker against a dead coordinator with a
// recording Sleep fake and the given jitter rng (nil = the default),
// returning the exact redial schedule it chose.
func recordBackoffs(t *testing.T, addr string, jitter *rand.Rand, attempts int) []time.Duration {
	t.Helper()
	var waits []time.Duration
	st, err := RunWorker(context.Background(), WorkerConfig{
		Config:          mustFarmConfig(),
		BlockSize:       farmBlockSize,
		Name:            "jitter-probe",
		Addr:            addr,
		ReconnectWait:   80 * time.Millisecond,
		MaxJoinFailures: attempts,
		Jitter:          jitter,
		Sleep: func(ctx context.Context, d time.Duration) bool {
			waits = append(waits, d)
			return true
		},
	})
	if err == nil {
		t.Fatal("worker against a dead coordinator returned nil error")
	}
	if !reflect.DeepEqual(st.Backoffs, waits) {
		t.Fatalf("WorkerStats.Backoffs %v disagree with the slept schedule %v", st.Backoffs, waits)
	}
	return waits
}

// TestFarmWorkerBackoffJitterDeterministic pins the reconnect schedule:
// jitter is drawn from an injectable seeded rng (same seed, same exact
// schedule; different seed, different schedule), every delay lands in
// [base/2, base], and the base doubles per failure up to the 32× cap —
// the same contract feed.Collector's reconnect path keeps, so a farm of
// workers orphaned together spreads its redials instead of thundering.
func TestFarmWorkerBackoffJitterDeterministic(t *testing.T) {
	addr := deadAddr(t)
	const attempts = 9
	seeded := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	a := recordBackoffs(t, addr, seeded(7), attempts)
	b := recordBackoffs(t, addr, seeded(7), attempts)
	c := recordBackoffs(t, addr, seeded(8), attempts)

	if len(a) != attempts-1 {
		t.Fatalf("recorded %d backoffs, want one per retry = %d", len(a), attempts-1)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced the identical schedule %v", a)
	}

	base := 80 * time.Millisecond
	for i, d := range a {
		if d < base/2 || d > base {
			t.Errorf("backoff %d = %v outside the jitter window [%v, %v]", i, d, base/2, base)
		}
		if base *= 2; base > 32*80*time.Millisecond {
			base = 32 * 80 * time.Millisecond
		}
	}
	// The cap must actually have been reached within the budget.
	if last := a[len(a)-1]; last > 32*80*time.Millisecond {
		t.Errorf("final backoff %v exceeds the 32× cap", last)
	}

	// Default-configured workers (no Jitter) must decorrelate: a farm
	// orphaned by one coordinator death must not redial in lockstep.
	d1 := recordBackoffs(t, addr, nil, attempts)
	if d2 := recordBackoffs(t, addr, nil, attempts); reflect.DeepEqual(d1, d2) {
		t.Errorf("two default workers chose the identical schedule %v", d1)
	}
}
