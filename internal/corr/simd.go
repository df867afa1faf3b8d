package corr

import (
	"fmt"
	"os"
	"sync/atomic"
)

// SIMD dispatch. The batched Maronna kernel (pairBatch[F], one type
// for both lane precisions) has a hand-written amd64 AVX2 backend that
// executes the weight passes in lane-major lockstep: the active lanes'
// window data is transposed into obs-major tiles and four (float64) or
// eight (float32) lanes advance per vector instruction, each lane's
// accumulators pinned to its own vector slot. Because a lane's operation sequence is exactly
// the scalar reference's — same expressions, same order, one IEEE
// operation per IEEE operation — the f64 vector path is bit-identical
// to the pure-Go kernel (see DESIGN.md §10 for the full argument).
//
// Dispatch is resolved once at process start from CPUID (AVX2 plus OS
// YMM-state support) and can be forced down to the scalar tier three
// ways, strongest first:
//
//   - the `noasm` build tag compiles the assembly out entirely;
//   - the MM_NOSIMD environment variable (any non-empty value)
//     disables it process-wide at init;
//   - SetSIMDMode("off") — the `-simd=off` CLI flag on mmbacktest and
//     mmscale — disables it process-wide at runtime;
//
// and per request via EngineConfig.DisableSIMD, which is what the
// bench harness uses to A/B the tiers inside one process. Both tiers
// run the same phased sweep; the scalar tier simply runs the scalar
// weight passes on every lane, so non-amd64 builds and hosts without
// AVX2 lose nothing but speed.

// SIMD dispatch tier names, as reported by SIMDTier.
const (
	// SIMDTierScalar is the pure-Go fallback: the batched kernel with
	// scalar weight passes, used on non-amd64 builds, `noasm` builds,
	// hosts without AVX2, and whenever SIMD is disabled by env, flag or
	// config.
	SIMDTierScalar = "scalar"
	// SIMDTierAVX2 is the amd64 AVX2 backend: 4-wide f64 and 8-wide
	// f32 lane-major kernels.
	SIMDTierAVX2 = "avx2"
)

// simdSupported reports whether the running host can execute the
// vector kernels at all (resolved once at init by the arch-specific
// detection; constant false on non-amd64 and noasm builds).
var simdSupported = simdDetect()

// simdModeOff is the process-wide runtime kill switch (SetSIMDMode).
var simdModeOff atomic.Bool

// simdEnvOff is the MM_NOSIMD kill switch, resolved once at init. It
// outranks SetSIMDMode: a flag default of "auto" must not silently
// re-enable a tier the operator disabled in the environment.
var simdEnvOff = os.Getenv("MM_NOSIMD") != ""

// SetSIMDMode selects the process-wide SIMD dispatch mode: "auto"
// (use the best supported tier) or "off" (force the scalar tier).
// The f64 tiers produce bit-identical results, so switching modes
// never changes output — only speed. "auto" does not override the
// MM_NOSIMD environment variable. Returns an error for any other
// mode string.
func SetSIMDMode(mode string) error {
	switch mode {
	case "auto":
		simdModeOff.Store(false)
	case "off":
		simdModeOff.Store(true)
	default:
		return fmt.Errorf("corr: unknown SIMD mode %q (want auto or off)", mode)
	}
	return nil
}

// SIMDSupported reports the highest tier the host and build can
// execute, ignoring the env/flag kill switches.
func SIMDSupported() string {
	if simdSupported {
		return SIMDTierAVX2
	}
	return SIMDTierScalar
}

// SIMDTier reports the dispatch tier new batch kernels will actually
// use: the supported tier unless MM_NOSIMD or SetSIMDMode("off")
// forced the scalar path. Per-request EngineConfig.DisableSIMD is not
// reflected here.
func SIMDTier() string {
	if simdActive() {
		return SIMDTierAVX2
	}
	return SIMDTierScalar
}

// simdActive resolves the process-wide dispatch decision.
func simdActive() bool {
	return simdSupported && !simdEnvOff && !simdModeOff.Load()
}

// simdProfiling gates the pack/run wall-clock telemetry of the SIMD
// batch path (RobustStats.SIMDPackNs / SIMDRunNs). It costs four
// clock reads per batch run, so it is off by default and enabled only
// by the bench harness to measure the transpose overhead.
var simdProfiling atomic.Bool

// SetSIMDProfiling enables or disables SIMD pack/run wall-clock
// telemetry on batch runs that carry a RobustStats collector.
func SetSIMDProfiling(on bool) { simdProfiling.Store(on) }
