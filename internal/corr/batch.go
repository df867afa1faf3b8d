package corr

import (
	"math"
	"time"
)

// The batched Maronna kernel. The per-pair kernel (MaronnaEstimator's
// iterate/FitScratchShared) advances one pair's fixed point at a time:
// every window is a self-contained call chain whose state lives in
// locals and whose control flow (warm attempt → strict failure → cold
// restart) is expressed as early returns. That shape is convenient but
// hostile to a large pair triangle: the call overhead, the per-call
// weight reset and the one-lane-at-a-time traversal leave the CPU no
// way to overlap independent pairs.
//
// pairBatch lays the same iteration out as struct-of-arrays lanes: one
// lane per pair, the per-lane scalars (location, scatter, Anderson
// history, iteration budget, warm/cold mode) in parallel slices, and
// the per-observation weight rows carved out of one flat backing
// array. A sweep applies exactly one fixed-point iteration to every
// active lane; lanes that finish (converged, collapsed, or out of
// budget) drop out via swap-to-end compaction so late-converging pairs
// do not serialize the batch.
//
// The lane precision F selects one of two contracts.
//
// float64 — bit-identity: a lane executes the reference per-pair
// arithmetic — the same expressions, in the same order, on the same
// values — as MaronnaEstimator.FitScratchShared. Interleaving lanes is
// bit-neutral because no lane reads another lane's state; the only
// behavioural difference is scheduling. Two deliberate non-arithmetic
// deviations, both value-preserving:
//
//   - the weight row is not eagerly reset to all-ones per window; it
//     is filled with ones at finalization only when the accepted run
//     performed no scatter pass (degenerate exits), because any scatter
//     pass overwrites every entry anyway;
//   - a strict (warm) failure restarts the lane cold in place instead
//     of unwinding a call stack.
//
// TestMatrixEngineMatchesReference and the degenerate-batch tests are
// the gate: per-pair results must be bit-identical to running each
// pair alone through the reference.
//
// float32 — bounded accuracy. Profiling puts the robust day almost
// entirely inside the fixed point, and the fixed point's cost is its
// iteration count: the map contracts linearly, so driving the relative
// scatter residual to the float64 tolerance (1e-8) costs many more
// sweeps than driving it to what single precision can resolve (~1e-5,
// a few ULPs of the scatter entries). The float32 lane iterates in
// single precision until the float32 tolerance is met, then polishes
// with a fixed, small number of exact float64 iterations so the
// reported fixed point carries full-precision arithmetic.
// TestFloat32LaneAccuracy and the f32_max_abs_rho_delta bench field
// measure it against the exact path. Single precision is allowed to
// give up, never to degrade: any degeneracy on the float32 side —
// scatter collapse or budget exhaustion on a cold run, a cold
// initialiser that under/overflows float32, NaN contamination, or a
// polish step that collapses — abandons the lane to the exact float64
// path (FitScratchShared with the same warm/cold inputs), so the worst
// case is the exact answer at the exact cost. Warm (strict) float32
// failures restart cold in float32 first, mirroring the exact kernel's
// warm→cold ladder.
//
// Both precisions share every line of the batch code. They differ in four
// per-lane-per-sweep hooks, never per observation: the weight-pass
// kernels and their vector width (locate/scatter), a converged lane
// (converge), a failed cold lane (fail), and the float32 admission
// check on a lane's starting scatter (posDef in add/startCold).
type pairBatch[F float32 | float64] struct {
	k, k2   F
	tol     F
	maxIter int

	// exact is set for float64 lanes: they run the reference
	// arithmetic and resolve themselves. float32 lanes polish or fall
	// back to est.
	exact bool
	width int // lanes per vector kernel call: 4 (float64) or 8 (float32)

	est *MaronnaEstimator // validated config; exact fallback of float32 lanes
	sc  *Scratch          // fallback scratch

	m       int // window length all lanes share
	laneCap int
	active  int

	// Per-lane window views and weight rows (swapped with their lane).
	// x64/y64 are the float64 windows behind the lane-precision xw/yw
	// (the same slices when F is float64): cold initialisers, polish
	// and fallback read them.
	xw, yw   [][]F
	x64, y64 [][]float64
	wrow     [][]float64
	wback    []float64 // flat backing for the weight rows

	// Per-lane iteration state, struct-of-arrays.
	t1, t2        []F
	v11, v22, v12 []F
	pg, pf        [][5]F // Anderson(1) history
	havePrev      []bool
	strict        []bool // current run is the warm strict attempt
	wFresh        []bool // weight row written by the accepted run
	iters         []int
	tag           []int // caller's lane identity (stable across compaction)
	warm          []Fit // the lane's warm input; Valid means an attempt was made

	// Shared cold-start initialisers captured at add time (used again
	// if a strict run fails and the lane restarts cold).
	ix, iy   []ColdInit
	haveInit []bool

	// Results indexed by tag, valid after run() until the next begin().
	fits []Fit
	wOut [][]float64 // final weight rows, aliases into wback

	sbuf []float64 // median/MAD selection scratch for inline cold inits

	// Lane-major SIMD state. When simd is set (AVX2 available and not
	// disabled for this batch) and a run starts with at least one
	// vector of lanes, the windows are packed into tiles and every full
	// vector of lanes runs the weight passes as one kernel call.
	// Element i of the lane at position l lives at
	// xt[(l/width)*width*m + i*width + l%width] (vector-blocked
	// obs-major), so a vector's observation i is one contiguous 32-byte
	// load. Lanes keep their packed columns as compaction swaps them
	// (swapLanes swaps columns while packed).
	simd   bool // vector backend enabled for this batch
	packed bool // tiles currently hold the active lanes' windows

	xt, yt []F
	wt     []float64 // weight tile; float64 lanes only (float32 scatter records no weights)
	wVec   []bool    // lane's freshest weights live in wt, not wrow
	dead   []bool    // lane finalized mid-sweep, compacted at sweep end
	skip   []bool    // lane resolved/restarted this sweep: sits out its remaining phases

	// Per-sweep per-lane scratch carrying values between phases
	// (inverse scatter, location sums, new center, scatter sums).
	li11, li22, li12 []F
	lsw, lsx, lsy    []F
	lt1n, lt2n       []F
	ln11, ln22, ln12 []F
}

// float32Tol is the convergence tolerance of the single-precision
// sweeps: ~100 ULPs of a unit-scale scatter, comfortably above float32
// rounding noise yet tight enough that the fixed float64 polish
// (contraction ≈ 0.4/step plus Anderson-free quadratic-ish tail)
// lands within ~1e-6 of the exact fixed point.
const float32Tol = 1e-5

// float32PolishIters is the fixed number of exact iterations run after
// float32 convergence.
const float32PolishIters = 2

// newPairBatch builds a batch kernel for the given (validated)
// estimator configuration. The batch grows its lane capacity on
// demand and is reused across tiles and windows by one worker. simd
// requests the vector backend; it takes effect only when the
// process-wide dispatch (CPUID, noasm, MM_NOSIMD, SetSIMDMode) allows
// it, so callers just pass !cfg.DisableSIMD.
func newPairBatch[F float32 | float64](cfg MaronnaConfig, simd bool) *pairBatch[F] {
	e := NewMaronnaEstimator(cfg) // reuse the validation defaults
	c := e.Config()
	b := &pairBatch[F]{
		k: F(c.K), k2: F(c.K * c.K), tol: F(c.Tol), maxIter: c.MaxIter,
		est: e, simd: simd && simdActive(),
	}
	switch any(b).(type) {
	case *pairBatch[float64]:
		b.exact, b.width = true, 4
	case *pairBatch[float32]:
		b.width = 8
		if b.tol < float32Tol {
			b.tol = float32Tol
		}
	}
	return b
}

// begin prepares the batch for windows of length m with up to lanes
// concurrent lanes. Calling it with previously-seen sizes performs no
// allocation; results of the previous run remain readable until the
// first add.
func (b *pairBatch[F]) begin(m, lanes int) {
	if m != b.m || lanes > b.laneCap {
		b.grow(m, lanes)
	}
	b.active = 0
}

func (b *pairBatch[F]) grow(m, lanes int) {
	if lanes < b.laneCap {
		lanes = b.laneCap
	}
	b.m = m
	b.laneCap = lanes
	b.xw = make([][]F, lanes)
	b.yw = make([][]F, lanes)
	b.x64 = make([][]float64, lanes)
	b.y64 = make([][]float64, lanes)
	b.wrow = make([][]float64, lanes)
	b.wback = make([]float64, lanes*m)
	b.t1 = make([]F, lanes)
	b.t2 = make([]F, lanes)
	b.v11 = make([]F, lanes)
	b.v22 = make([]F, lanes)
	b.v12 = make([]F, lanes)
	b.pg = make([][5]F, lanes)
	b.pf = make([][5]F, lanes)
	b.havePrev = make([]bool, lanes)
	b.strict = make([]bool, lanes)
	b.wFresh = make([]bool, lanes)
	b.iters = make([]int, lanes)
	b.tag = make([]int, lanes)
	b.warm = make([]Fit, lanes)
	b.ix = make([]ColdInit, lanes)
	b.iy = make([]ColdInit, lanes)
	b.haveInit = make([]bool, lanes)
	b.fits = make([]Fit, lanes)
	b.wOut = make([][]float64, lanes)
	b.sbuf = make([]float64, m)
	b.wVec = make([]bool, lanes)
	b.dead = make([]bool, lanes)
	b.skip = make([]bool, lanes)
	b.li11 = make([]F, lanes)
	b.li22 = make([]F, lanes)
	b.li12 = make([]F, lanes)
	b.lsw = make([]F, lanes)
	b.lsx = make([]F, lanes)
	b.lsy = make([]F, lanes)
	b.lt1n = make([]F, lanes)
	b.lt2n = make([]F, lanes)
	b.ln11 = make([]F, lanes)
	b.ln22 = make([]F, lanes)
	b.ln12 = make([]F, lanes)
	if b.simd {
		tile := (lanes + b.width - 1) / b.width * b.width * m
		b.xt = make([]F, tile)
		b.yt = make([]F, tile)
		if b.exact {
			b.wt = make([]float64, tile)
		}
	}
}

// add enqueues one window as a lane. x and y must have length m (the
// begin length); xf and yf are the same windows in lane precision (for
// float64 lanes, x and y again). tag identifies the lane to the caller
// (0 ≤ tag < lanes) and indexes the fits/wOut result slots. warm, ix,
// iy carry the same meaning as in FitScratchShared. Lanes that finish
// without iterating (degenerate cold inits) resolve immediately.
func (b *pairBatch[F]) add(x, y []float64, xf, yf []F, warm *Fit, ix, iy *ColdInit, tag int, st *RobustStats) {
	l := b.active
	b.x64[l], b.y64[l] = x, y
	b.xw[l], b.yw[l] = xf, yf
	b.tag[l] = tag
	// The weight row is carved out by tag, not by lane slot: a lane
	// that resolves during add frees its slot for the next add, and a
	// slot-indexed row would let that later lane overwrite the weights
	// already published under the finished lane's tag.
	b.wrow[l] = b.wback[tag*b.m : (tag+1)*b.m : (tag+1)*b.m]
	b.wFresh[l] = false
	b.wVec[l] = false
	b.dead[l] = false
	b.skip[l] = false
	b.iters[l] = 0
	b.havePrev[l] = false
	if warm != nil {
		b.warm[l] = *warm
	} else {
		b.warm[l] = Fit{}
	}
	if ix != nil && iy != nil {
		b.ix[l], b.iy[l] = *ix, *iy
		b.haveInit[l] = true
	} else {
		b.haveInit[l] = false
	}
	b.active = l + 1
	if w := &b.warm[l]; w.Valid {
		// Strict warm attempt from the previous window's fixed point.
		b.strict[l] = true
		b.t1[l], b.t2[l] = F(w.T1), F(w.T2)
		b.v11[l], b.v22[l], b.v12[l] = F(w.V11), F(w.V22), F(w.V12)
		if b.exact || posDef(b.v11[l], b.v22[l], b.v12[l]) {
			return
		}
		// The float64 fixed point is PD but its float32 truncation is
		// not (tiny scatter): cold-start in float32 instead.
	}
	if !b.startCold(l, st) {
		b.active = l // resolved without a sweep: free the slot
	}
}

// posDef reports whether a scatter is usable as a float32 lane's
// starting point (finite, positive definite).
func posDef[F float32 | float64](v11, v22, v12 F) bool {
	det := v11*v22 - v12*v12
	return v11 > 0 && v22 > 0 && det > 0 && !math.IsInf(float64(det), 0)
}

// startCold (re)initialises lane l from the robust univariate cold
// start, finalizing immediately when a series is genuinely constant
// (no correlation defined — the reference's empty Fit). A float32 lane
// whose initial scatter float32 cannot represent falls back to the
// exact path. It reports whether the lane is still active.
func (b *pairBatch[F]) startCold(l int, st *RobustStats) bool {
	b.strict[l] = false
	b.wFresh[l] = false
	b.iters[l] = 0
	b.havePrev[l] = false
	var i1, i2 ColdInit
	if b.haveInit[l] {
		i1, i2 = b.ix[l], b.iy[l]
	} else {
		i1 = ColdInitOf(b.sbuf, b.x64[l])
		i2 = ColdInitOf(b.sbuf, b.y64[l])
	}
	if i1.Scale == 0 || i2.Scale == 0 {
		return b.finalize(l, Fit{}, st)
	}
	s1, s2 := F(i1.Scale), F(i2.Scale)
	v11, v22 := s1*s1, s2*s2
	if !b.exact && !posDef(v11, v22, 0) {
		return b.fallbackExact(l, st)
	}
	b.t1[l], b.t2[l] = F(i1.Med), F(i2.Med)
	b.v11[l], b.v22[l], b.v12[l] = v11, v22, 0
	return true
}

// run sweeps the active set until every lane has finished. One sweep
// applies one fixed-point iteration to each active lane, split into
// phases so the two weight passes can run as lane-major vector
// kernels: (1) the determinant guard and inverse scatter per lane,
// (2) the location pass, (3) the sw==0 guard and new center per lane,
// (4) the scatter pass, (5) convergence, Anderson(1) and budget per
// lane. The passes run the vector kernel over every full vector of
// packed lanes and the scalar pass over the rest — all lanes on the
// scalar tier or when the run starts with fewer than one vector of
// lanes. A lane resolved or cold-restarted by a per-lane phase sets
// skip and sits out the rest of the sweep; vector kernels still
// process skipped lanes' slots — their packed data is valid, no lane
// reads another's slot, and the later phases discard the results — so
// vectors never need masking. Finalized lanes compact at sweep end,
// so a sweep steps exactly its start-of-sweep active set on both
// tiers: fits, weights and st's active-set telemetry are tier-
// independent.
func (b *pairBatch[F]) run(st *RobustStats) {
	vec := b.simd && b.active >= b.width
	prof := vec && st != nil && simdProfiling.Load()
	var t0 time.Time
	if prof {
		t0 = time.Now()
	}
	if vec {
		b.pack()
		if prof {
			now := time.Now()
			st.SIMDPackNs += now.Sub(t0).Nanoseconds()
			t0 = now
		}
	}
	for b.active > 0 {
		if st != nil {
			st.recordSweep(b.active)
		}
		n := b.active
		full := 0
		if b.packed {
			full = n - n%b.width
		}
		for l := 0; l < n; l++ {
			b.skip[l] = false
			b.phaseInverse(l, st)
		}
		b.locate(n, full)
		for l := 0; l < n; l++ {
			if !b.skip[l] {
				b.phaseCenter(l, st)
			}
		}
		b.scatter(n, full)
		for l := 0; l < n; l++ {
			if !b.skip[l] {
				b.phaseAdvance(l, st)
			}
		}
		b.compactDead()
	}
	b.packed = false
	if prof {
		st.SIMDRunNs += time.Since(t0).Nanoseconds()
	}
}

// locate is the location pass of a sweep over lanes [0, n): the vector
// kernel over the first full lanes, the scalar pass over the other
// lanes still stepping.
func (b *pairBatch[F]) locate(n, full int) {
	switch b := any(b).(type) {
	case *pairBatch[float64]:
		m := b.m
		for o := 0; o < full; o += 4 {
			maronnaLocation4(&b.xt[o*m], &b.yt[o*m], m,
				&b.t1[o], &b.t2[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k, b.k2, &b.lsw[o], &b.lsx[o], &b.lsy[o])
		}
		for l := full; l < n; l++ {
			if !b.skip[l] {
				b.lsw[l], b.lsx[l], b.lsy[l] = maronnaLocation(b.xw[l], b.yw[l],
					b.t1[l], b.t2[l], b.li11[l], b.li22[l], b.li12[l], b.k, b.k2)
			}
		}
	case *pairBatch[float32]:
		m := b.m
		for o := 0; o < full; o += 8 {
			maronnaLocation8f(&b.xt[o*m], &b.yt[o*m], m,
				&b.t1[o], &b.t2[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k, b.k2, &b.lsw[o], &b.lsx[o], &b.lsy[o])
		}
		for l := full; l < n; l++ {
			if !b.skip[l] {
				b.lsw[l], b.lsx[l], b.lsy[l] = maronnaLocation32(b.xw[l], b.yw[l],
					b.t1[l], b.t2[l], b.li11[l], b.li22[l], b.li12[l], b.k, b.k2)
			}
		}
	}
}

// scatter is the scatter pass of a sweep, split like locate. float64
// lanes record their weights (in the wt tile for vector lanes, in the
// weight row otherwise); float32 lanes record none — the polish or
// the exact fallback writes the weights that get published.
func (b *pairBatch[F]) scatter(n, full int) {
	switch b := any(b).(type) {
	case *pairBatch[float64]:
		m := b.m
		for o := 0; o < full; o += 4 {
			maronnaScatter4(&b.xt[o*m], &b.yt[o*m], &b.wt[o*m], m,
				&b.lt1n[o], &b.lt2n[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k2, &b.ln11[o], &b.ln22[o], &b.ln12[o])
		}
		for l := 0; l < n; l++ {
			if b.skip[l] {
				continue
			}
			if l >= full {
				b.ln11[l], b.ln22[l], b.ln12[l] = maronnaScatter(b.xw[l], b.yw[l],
					b.wrow[l], b.lt1n[l], b.lt2n[l], b.li11[l], b.li22[l], b.li12[l], b.k2)
			}
			b.wFresh[l] = true
			b.wVec[l] = l < full
		}
	case *pairBatch[float32]:
		m := b.m
		for o := 0; o < full; o += 8 {
			maronnaScatter8f(&b.xt[o*m], &b.yt[o*m], m,
				&b.lt1n[o], &b.lt2n[o], &b.li11[o], &b.li22[o], &b.li12[o],
				b.k2, &b.ln11[o], &b.ln22[o], &b.ln12[o])
		}
		for l := full; l < n; l++ {
			if !b.skip[l] {
				b.ln11[l], b.ln22[l], b.ln12[l] = maronnaScatter32(b.xw[l], b.yw[l],
					b.lt1n[l], b.lt2n[l], b.li11[l], b.li22[l], b.li12[l], b.k2)
			}
		}
	}
}

// pack transposes the active lanes' windows into the vector-blocked
// tiles. It runs once per batch run — the tiles then serve every
// sweep, and compaction keeps columns attached to their lanes by
// swapping them.
func (b *pairBatch[F]) pack() {
	m, w := b.m, b.width
	xt, yt := b.xt, b.yt
	for l := 0; l < b.active; l++ {
		o := (l&^(w-1))*m + l&(w-1)
		x, y := b.xw[l][:m], b.yw[l][:m]
		for i := range x {
			xt[o], yt[o] = x[i], y[i]
			o += w
		}
		b.wVec[l] = false
	}
	b.packed = true
}

// untranspose copies lane l's weight column out of the wt tile into
// its flat weight row (the form results are published in). Only
// float64 lanes have a weight tile, so the blocking is by quads.
func (b *pairBatch[F]) untranspose(l int) {
	base := (l&^3)*b.m + l&3
	w := b.wrow[l]
	for i := range w {
		w[i] = b.wt[base+i*4]
	}
}

// phaseInverse opens one fixed-point iteration: the determinant guard
// and the inverse-scatter entries, stashed per lane for the weight
// passes.
func (b *pairBatch[F]) phaseInverse(l int, st *RobustStats) {
	v11, v22, v12 := b.v11[l], b.v22[l], b.v12[l]
	det := v11*v22 - v12*v12
	if det <= 0 || v11 <= 0 || v22 <= 0 {
		// Scatter collapsed.
		b.fail(l, st)
		return
	}
	b.iters[l]++
	b.li11[l] = v22 / det
	b.li22[l] = v11 / det
	b.li12[l] = -v12 / det
}

// phaseCenter is the iteration's middle: the sw==0 degeneracy guard
// and the new location from the location sums.
func (b *pairBatch[F]) phaseCenter(l int, st *RobustStats) {
	sw := b.lsw[l]
	if sw == 0 {
		b.fail(l, st)
		return
	}
	b.lt1n[l], b.lt2n[l] = b.lsx[l]/sw, b.lsy[l]/sw
}

// phaseAdvance is the iteration's tail from the scatter normalisation
// on: convergence test, Anderson(1) extrapolation, and iteration
// budget — transcribing the reference iterate loop expression for
// expression.
func (b *pairBatch[F]) phaseAdvance(l int, st *RobustStats) {
	v11, v22, v12 := b.v11[l], b.v22[l], b.v12[l]
	t1, t2 := b.t1[l], b.t2[l]
	t1n, t2n := b.lt1n[l], b.lt2n[l]
	n11, n22, n12 := b.ln11[l], b.ln22[l], b.ln12[l]
	fn := F(len(b.xw[l]))
	n11 /= fn
	n22 /= fn
	n12 /= fn

	den := fabs(v11) + fabs(v22) + fabs(v12)
	num := fabs(n11-v11) + fabs(n22-v22) + fabs(n12-v12)
	g := [5]F{t1n, t2n, n11, n22, n12}
	f := [5]F{t1n - t1, t2n - t2, n11 - v11, n22 - v22, n12 - v12}
	t1, t2 = t1n, t2n
	v11, v22, v12 = n11, n22, n12
	if den > 0 && num/den < b.tol {
		b.t1[l], b.t2[l] = t1, t2
		b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12
		b.converge(l, st)
		return
	}

	// Anderson(1) extrapolation from the last two plain steps.
	if b.havePrev[l] {
		pf := &b.pf[l]
		var fd, dd F
		for c := 0; c < 5; c++ {
			d := f[c] - pf[c]
			fd += f[c] * d
			dd += d * d
		}
		if dd > 0 {
			if theta := fd / dd; fabs(theta) < 16 {
				pg := &b.pg[l]
				a1 := t1n - theta*(t1n-pg[0])
				a2 := t2n - theta*(t2n-pg[1])
				a11 := n11 - theta*(n11-pg[2])
				a22 := n22 - theta*(n22-pg[3])
				a12 := n12 - theta*(n12-pg[4])
				// Safeguard: extrapolate only onto a usable scatter.
				if a11 > 0 && a22 > 0 && a11*a22-a12*a12 > 0 {
					t1, t2 = a1, a2
					v11, v22, v12 = a11, a22, a12
				}
			}
		}
	}
	b.pg[l] = g
	b.pf[l] = f
	b.havePrev[l] = true
	b.t1[l], b.t2[l] = t1, t2
	b.v11[l], b.v22[l], b.v12[l] = v11, v22, v12

	if b.iters[l] >= b.maxIter {
		// Iteration budget exhausted without convergence.
		b.fail(l, st)
	}
}

// fabs is math.Abs in the lane precision (exact for float32: the
// round trip through float64 is lossless).
func fabs[F float32 | float64](x F) F { return F(math.Abs(float64(x))) }

// converge resolves lane l, whose plain step just met the tolerance. A
// float64 lane publishes its state — unless it is a strict run that
// converged onto a degenerate scatter, which the reference reports as
// a warm failure and reruns cold. A float32 lane goes to the float64
// polish. Either way the lane sits out the rest of the sweep.
func (b *pairBatch[F]) converge(l int, st *RobustStats) {
	switch {
	case !b.exact:
		b.polishLane(l, st)
	case b.strict[l] && (b.v11[l] <= 0 || b.v22[l] <= 0):
		b.startCold(l, st)
	default:
		b.finish(l, true, st)
	}
	b.skip[l] = true
}

// fail ends lane l's current run without convergence (collapsed
// scatter, zero location weight, or exhausted budget): a strict run
// restarts cold; a cold float64 run accepts its current state (the
// reference's break); a cold float32 run gives up to the exact path.
// Either way the lane sits out the rest of the sweep.
func (b *pairBatch[F]) fail(l int, st *RobustStats) {
	switch {
	case b.strict[l]:
		b.startCold(l, st)
	case b.exact:
		b.finish(l, false, st)
	default:
		b.fallbackExact(l, st)
	}
	b.skip[l] = true
}

// compactDead swaps lanes finalized during the sweep (or during add)
// out of the active set. Running it between sweeps keeps vector
// membership stable while kernels are in flight.
func (b *pairBatch[F]) compactDead() {
	l := 0
	for l < b.active {
		if !b.dead[l] {
			l++
			continue
		}
		last := b.active - 1
		if l != last {
			b.swapLanes(l, last)
		}
		b.dead[last] = false
		b.active = last
	}
}

// finish builds a float64 lane's Fit exactly as the reference does
// after its loop exits and finalizes the lane.
func (b *pairBatch[F]) finish(l int, converged bool, st *RobustStats) bool {
	f := Fit{
		T1: float64(b.t1[l]), T2: float64(b.t2[l]),
		V11: float64(b.v11[l]), V22: float64(b.v22[l]), V12: float64(b.v12[l]),
		Iters: b.iters[l], Converged: converged,
	}
	if f.V11 > 0 && f.V22 > 0 {
		f.Rho = clampCorr(f.V12 / math.Sqrt(f.V11*f.V22))
		// Only cleanly converged scatters seed the next window: a
		// collapsed or budget-exhausted state would poison the chain.
		f.Valid = converged && f.V11*f.V22-f.V12*f.V12 > 0
		if b.strict[l] {
			f.Seeded = true
		}
	}
	return b.finalize(l, f, st)
}

// polishLane promotes float32 lane l's converged state to float64 and
// runs the fixed exact polish iterations, writing the lane's float64
// weight row. Any degeneracy mid-polish abandons to the exact path.
// The passes keep the reference's serial shape: reassociated variants
// measured no faster (the passes are µop-throughput-bound).
func (b *pairBatch[F]) polishLane(l int, st *RobustStats) bool {
	x, y, w := b.x64[l], b.y64[l], b.wrow[l]
	t1, t2 := float64(b.t1[l]), float64(b.t2[l])
	v11, v22, v12 := float64(b.v11[l]), float64(b.v22[l]), float64(b.v12[l])
	c := b.est.Config()
	k, k2, tol := c.K, c.K*c.K, c.Tol
	iters := 0
	for p := 0; p < float32PolishIters; p++ {
		det := v11*v22 - v12*v12
		if det <= 0 || v11 <= 0 || v22 <= 0 {
			return b.fallbackExact(l, st)
		}
		iters++
		i11 := v22 / det
		i22 := v11 / det
		i12 := -v12 / det
		sw, sx, sy := maronnaLocation(x, y, t1, t2, i11, i22, i12, k, k2)
		if sw == 0 {
			return b.fallbackExact(l, st)
		}
		t1n, t2n := sx/sw, sy/sw
		n11, n22, n12 := maronnaScatter(x, y, w, t1n, t2n, i11, i22, i12, k2)
		fn := float64(len(x))
		n11 /= fn
		n22 /= fn
		n12 /= fn
		den := math.Abs(v11) + math.Abs(v22) + math.Abs(v12)
		num := math.Abs(n11-v11) + math.Abs(n22-v22) + math.Abs(n12-v12)
		t1, t2 = t1n, t2n
		v11, v22, v12 = n11, n22, n12
		if den > 0 && num/den < tol {
			break
		}
	}
	if v11 <= 0 || v22 <= 0 || v11*v22-v12*v12 <= 0 {
		return b.fallbackExact(l, st)
	}
	b.wFresh[l] = true
	f := Fit{
		T1: t1, T2: t2, V11: v11, V22: v22, V12: v12,
		Iters: b.iters[l] + iters, Converged: true, Valid: true,
		Seeded: b.strict[l],
	}
	f.Rho = clampCorr(v12 / math.Sqrt(v11*v22))
	return b.finalize(l, f, st)
}

// fallbackExact resolves float32 lane l through the exact float64
// per-pair path with the lane's original warm/cold inputs.
func (b *pairBatch[F]) fallbackExact(l int, st *RobustStats) bool {
	var ix, iy *ColdInit
	if b.haveInit[l] {
		ix, iy = &b.ix[l], &b.iy[l]
	}
	f, sc := b.est.FitScratchShared(b.x64[l], b.y64[l], b.sc, &b.warm[l], ix, iy)
	b.sc = sc
	if len(sc.Weights()) == len(b.wrow[l]) {
		copy(b.wrow[l], sc.Weights())
		b.wFresh[l] = true
	}
	return b.finalize(l, f, st)
}

// finalize publishes lane l's result under its tag, restores the
// all-ones weight row when no scatter pass of the accepted run wrote
// it, records the window statistics, and marks the lane dead for
// compaction. It always returns false (lane no longer active).
func (b *pairBatch[F]) finalize(l int, f Fit, st *RobustStats) bool {
	if b.wVec[l] {
		// The freshest weights live in the packed tile; publish them in
		// row form now, before a later vector scatter reuses the column.
		if b.wFresh[l] {
			b.untranspose(l)
		}
		b.wVec[l] = false
	}
	if !b.wFresh[l] {
		w := b.wrow[l]
		for i := range w {
			w[i] = 1
		}
	}
	tag := b.tag[l]
	b.fits[tag] = f
	b.wOut[tag] = b.wrow[l]
	if st != nil {
		st.record(f, b.warm[l].Valid)
	}
	b.dead[l] = true
	b.skip[l] = true
	return false
}

// swapLanes exchanges every per-lane slot of lanes i and j.
func (b *pairBatch[F]) swapLanes(i, j int) {
	b.xw[i], b.xw[j] = b.xw[j], b.xw[i]
	b.yw[i], b.yw[j] = b.yw[j], b.yw[i]
	b.x64[i], b.x64[j] = b.x64[j], b.x64[i]
	b.y64[i], b.y64[j] = b.y64[j], b.y64[i]
	b.wrow[i], b.wrow[j] = b.wrow[j], b.wrow[i]
	b.t1[i], b.t1[j] = b.t1[j], b.t1[i]
	b.t2[i], b.t2[j] = b.t2[j], b.t2[i]
	b.v11[i], b.v11[j] = b.v11[j], b.v11[i]
	b.v22[i], b.v22[j] = b.v22[j], b.v22[i]
	b.v12[i], b.v12[j] = b.v12[j], b.v12[i]
	b.pg[i], b.pg[j] = b.pg[j], b.pg[i]
	b.pf[i], b.pf[j] = b.pf[j], b.pf[i]
	b.havePrev[i], b.havePrev[j] = b.havePrev[j], b.havePrev[i]
	b.strict[i], b.strict[j] = b.strict[j], b.strict[i]
	b.wFresh[i], b.wFresh[j] = b.wFresh[j], b.wFresh[i]
	b.iters[i], b.iters[j] = b.iters[j], b.iters[i]
	b.tag[i], b.tag[j] = b.tag[j], b.tag[i]
	b.warm[i], b.warm[j] = b.warm[j], b.warm[i]
	b.ix[i], b.ix[j] = b.ix[j], b.ix[i]
	b.iy[i], b.iy[j] = b.iy[j], b.iy[i]
	b.haveInit[i], b.haveInit[j] = b.haveInit[j], b.haveInit[i]
	b.wVec[i], b.wVec[j] = b.wVec[j], b.wVec[i]
	b.dead[i], b.dead[j] = b.dead[j], b.dead[i]
	b.skip[i], b.skip[j] = b.skip[j], b.skip[i]
	if b.packed {
		b.swapCols(i, j)
	}
}

// swapCols exchanges the packed tile columns of lane positions i and j
// so compaction keeps every lane's window (and pending weight column)
// attached to its position in the vector layout.
func (b *pairBatch[F]) swapCols(i, j int) {
	m, w := b.m, b.width
	oi := (i&^(w-1))*m + i&(w-1)
	oj := (j&^(w-1))*m + j&(w-1)
	xt, yt, wt := b.xt, b.yt, b.wt
	for t := 0; t < m; t++ {
		xt[oi], xt[oj] = xt[oj], xt[oi]
		yt[oi], yt[oj] = yt[oj], yt[oi]
		if wt != nil {
			wt[oi], wt[oj] = wt[oj], wt[oi]
		}
		oi += w
		oj += w
	}
}

// maronnaLocation is the reference location pass (Huber w1 weights on
// the Mahalanobis distance) as a free function with the bounds checks
// hoisted. The arithmetic is expression-for-expression the loop inside
// MaronnaEstimator.iterate, which stays frozen as the verification
// baseline; same inputs produce bit-identical sums.
func maronnaLocation(x, y []float64, t1, t2, i11, i22, i12, k, k2 float64) (sw, sx, sy float64) {
	y = y[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := 1.0
		if d2 > k2 {
			w = k / math.Sqrt(d2)
		}
		sw += w
		sx += w * x[i]
		sy += w * y[i]
	}
	return sw, sx, sy
}

// maronnaScatter is the reference scatter pass (Huber w2 weights),
// recording the per-observation weights into wout. See
// maronnaLocation for the sharing rationale.
func maronnaScatter(x, y, wout []float64, t1, t2, i11, i22, i12, k2 float64) (n11, n22, n12 float64) {
	y = y[:len(x)]
	wout = wout[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := 1.0
		if d2 > k2 {
			w = k2 / d2
		}
		wout[i] = w
		n11 += w * dx * dx
		n22 += w * dy * dy
		n12 += w * dx * dy
	}
	return n11, n22, n12
}

// maronnaLocation32 is the location pass in single precision; the
// float32(math.Sqrt(float64(·))) form compiles to the hardware
// single-precision square root. The pass is kept in the reference's
// serial shape: it is throughput-bound (~13 µops per observation), so
// unrolled multi-accumulator variants measure no faster and spill
// registers; see DESIGN.md §8.
func maronnaLocation32(x, y []float32, t1, t2, i11, i22, i12, k, k2 float32) (sw, sx, sy float32) {
	y = y[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := float32(1)
		if d2 > k2 {
			w = k / float32(math.Sqrt(float64(d2)))
		}
		sw += w
		sx += w * x[i]
		sy += w * y[i]
	}
	return sw, sx, sy
}

// maronnaScatter32 is the scatter pass in single precision. Unlike the
// float64 pass it does not record per-observation weights: the weights
// that matter (Combined's) are produced by the float64 polish.
func maronnaScatter32(x, y []float32, t1, t2, i11, i22, i12, k2 float32) (n11, n22, n12 float32) {
	y = y[:len(x)]
	for i := range x {
		dx, dy := x[i]-t1, y[i]-t2
		d2 := dx*dx*i11 + 2*dx*dy*i12 + dy*dy*i22
		w := float32(1)
		if d2 > k2 {
			w = k2 / d2
		}
		n11 += w * dx * dx
		n22 += w * dy * dy
		n12 += w * dx * dy
	}
	return n11, n22, n12
}
