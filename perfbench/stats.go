package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"marketminer/internal/corr"
)

// median returns the median of xs (which it sorts), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks, or 0 for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// durationsMs converts and sorts durations as milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}

// rssSampler records the highest resident set size seen while it runs.
// Sampling confines the peak to the timed operations: the process-wide
// high-water mark would also hold set-up and reference garbage, whose
// size depends on where garbage collections happened to fall.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak int64 // bytes; read after stopAndPeak
}

const rssEvery = 5 * time.Millisecond

func startRSSSampler() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			r.peak = max(r.peak, residentBytes())
			select {
			case <-r.stop:
				r.peak = max(r.peak, residentBytes())
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stopAndPeak stops the sampler and returns its peak in MiB.
func (r *rssSampler) stopAndPeak() float64 {
	close(r.stop)
	<-r.done
	return float64(r.peak) / (1 << 20)
}

// residentBytes reads the process's current resident set size.
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// stealSeconds returns the CPU time the hypervisor has given to other
// guests while this machine's CPUs wanted to run (the steal column of
// /proc/stat), or 0 where that is not available.
func stealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostMeta describes the machine and build a result was measured on.
// With fewer than two CPUs the two benchmark workers share a core, so
// wall-clock scaling figures are reported as 0 and only counts hold.
func hostMeta() map[string]any {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"oversubscribed": runtime.NumCPU() < 2,
		"cpu_model":      cpuModel(),
		"simd_tier":      corr.SIMDTier(),
		"simd_supported": corr.SIMDSupported(),
		"go_version":     runtime.Version(),
		"git_revision":   rev,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
