package linalg

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned by Cholesky when the input matrix is not
// (numerically) symmetric positive definite even after the allowed jitter.
var ErrNotPositiveDefinite = errors.New("linalg: matrix not positive definite")

// Cholesky holds the lower-triangular factor L of A = L·Lᵀ, together with the
// jitter that had to be added to the diagonal to achieve positive
// definiteness (0 for well-conditioned inputs).
type Cholesky struct {
	L      *Matrix
	N      int
	Jitter float64
}

// NewCholesky factors the symmetric positive definite matrix a.
// The input is not modified. If the bare factorization fails, an adaptive
// jitter (starting at 1e-12 times the largest diagonal entry, growing by
// 10× up to maxTries times) is added to the diagonal; this is the standard
// guard for near-singular Gaussian-process covariance matrices.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrDimension
	}
	n := a.Rows
	scale := a.MaxAbsDiag()
	if scale == 0 {
		scale = 1
	}
	const maxTries = 10
	jitter := 0.0
	for try := 0; try <= maxTries; try++ {
		L, ok := tryCholesky(a, jitter)
		if ok {
			return &Cholesky{L: L, N: n, Jitter: jitter}, nil
		}
		if jitter == 0 {
			jitter = 1e-12 * scale
		} else {
			jitter *= 10
		}
	}
	return nil, ErrNotPositiveDefinite
}

func tryCholesky(a *Matrix, jitter float64) (*Matrix, bool) {
	n := a.Rows
	L := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j) + jitter
		for k := 0; k < j; k++ {
			ljk := L.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, false
		}
		ljj := math.Sqrt(d)
		L.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= L.At(i, k) * L.At(j, k)
			}
			L.Set(i, j, s/ljj)
		}
	}
	return L, true
}

// Append returns a new factorization extended by k rows in O(k·n²) instead
// of the O(n³) a full refactorization would cost. rows[i] holds the
// covariances of appended point i with the n existing points followed by the
// already-appended points 0..i-1 (length n+i); diag[i] is its own variance
// (diagonal entry, jitter excluded — the factor's existing Jitter is applied
// so the result matches what NewCholesky would produce on the full matrix
// at the same jitter level).
//
// The receiver is not modified. If the extended matrix is not positive
// definite at the current jitter, ErrNotPositiveDefinite is returned and the
// caller should fall back to a full refactorization.
func (c *Cholesky) Append(rows [][]float64, diag []float64) (*Cholesky, error) {
	k := len(rows)
	if k == 0 {
		return c, nil
	}
	if len(diag) != k {
		return nil, ErrDimension
	}
	for i, r := range rows {
		if len(r) != c.N+i {
			return nil, ErrDimension
		}
	}
	n := c.N
	nk := n + k
	L := NewMatrix(nk, nk)
	for i := 0; i < n; i++ {
		copy(L.Row(i)[:n], c.L.Row(i))
	}
	// Each appended row is one more step of the standard Cholesky recurrence,
	// with the same operation order as tryCholesky so an Append-built factor
	// is bitwise identical to a from-scratch one at the same jitter.
	for i := 0; i < k; i++ {
		m := n + i
		row := rows[i]
		lm := L.Row(m)
		for j := 0; j < m; j++ {
			s := row[j]
			lj := L.Row(j)
			for t := 0; t < j; t++ {
				s -= lm[t] * lj[t]
			}
			lm[j] = s / lj[j]
		}
		d := diag[i] + c.Jitter
		for t := 0; t < m; t++ {
			d -= lm[t] * lm[t]
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotPositiveDefinite
		}
		lm[m] = math.Sqrt(d)
	}
	return &Cholesky{L: L, N: nk, Jitter: c.Jitter}, nil
}

// RankUpdate applies the symmetric rank-1 update A → A + v·vᵀ to the
// factorization in place, in O(n²) (the classic Givens-based cholupdate):
// each step rotates one entry of v into the corresponding diagonal of L and
// carries the rotation down the column. v is consumed as scratch and is
// garbage afterwards. Because v·vᵀ is positive semidefinite, the update
// cannot lose positive definiteness; the dimension check is the only
// failure mode.
func (c *Cholesky) RankUpdate(v []float64) error {
	n := c.N
	if len(v) != n {
		return ErrDimension
	}
	for k := 0; k < n; k++ {
		lkk := c.L.At(k, k)
		r := math.Hypot(lkk, v[k])
		cc := r / lkk
		s := v[k] / lkk
		c.L.Set(k, k, r)
		if s == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			lik := (c.L.At(i, k) + s*v[i]) / cc
			v[i] = cc*v[i] - s*lik
			c.L.Set(i, k, lik)
		}
	}
	return nil
}

// Clone returns an independent copy of the factorization (RankUpdate
// mutates in place; callers that need copy-on-write semantics clone first).
func (c *Cholesky) Clone() *Cholesky {
	L := NewMatrix(c.N, c.N)
	for i := 0; i < c.N; i++ {
		copy(L.Row(i), c.L.Row(i))
	}
	return &Cholesky{L: L, N: c.N, Jitter: c.Jitter}
}

// Solve returns x such that A·x = b, reusing the factorization.
func (c *Cholesky) Solve(b []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveInto(x, b)
	return x
}

// SolveInto solves A·x = b into dst without allocating. dst may alias b.
func (c *Cholesky) SolveInto(dst, b []float64) {
	c.SolveLowerInto(dst, b)
	c.SolveUpperTInto(dst, dst)
}

// SolveLower returns y solving L·y = b (forward substitution).
func (c *Cholesky) SolveLower(b []float64) []float64 {
	y := make([]float64, c.N)
	c.SolveLowerInto(y, b)
	return y
}

// SolveLowerInto solves L·y = b into dst without allocating (forward
// substitution over the contiguous rows of L). dst may alias b.
func (c *Cholesky) SolveLowerInto(dst, b []float64) {
	if len(b) != c.N || len(dst) != c.N {
		panic("linalg: Cholesky.SolveLowerInto dimension mismatch")
	}
	for i := 0; i < c.N; i++ {
		s := b[i]
		row := c.L.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * dst[k]
		}
		dst[i] = s / row[i]
	}
}

// SolveLowerBlockInto solves L·Y = B for a block of right-hand sides at
// once: dst[j] = L⁻¹·b[j] for every column j, without allocating. dst[j]
// may alias b[j] (but no other column). Forward substitution is one serial
// chain of multiply-subtracts per row, so a single column is latency-bound;
// sweeping the factor for four columns at a time (then a 3-, 2- or 1-column
// tail) overlaps their chains and reads each row of L once per group. Every
// column keeps SolveLowerInto's exact operation order, so dst[j] is bit for
// bit what SolveLowerInto(dst[j], b[j]) produces.
func (c *Cholesky) SolveLowerBlockInto(dst, b [][]float64) {
	if len(dst) != len(b) {
		panic("linalg: Cholesky.SolveLowerBlockInto column count mismatch")
	}
	for j := range b {
		if len(b[j]) != c.N || len(dst[j]) != c.N {
			panic("linalg: Cholesky.SolveLowerBlockInto dimension mismatch")
		}
		// The kernels solve in place: entry i of a column is read just
		// before it is overwritten, exactly as in SolveLowerInto.
		copy(dst[j], b[j])
	}
	j := 0
	for ; j+4 <= len(dst); j += 4 {
		c.solveLower4(dst[j], dst[j+1], dst[j+2], dst[j+3])
	}
	switch len(dst) - j {
	case 3:
		c.solveLower3(dst[j], dst[j+1], dst[j+2])
	case 2:
		c.solveLower2(dst[j], dst[j+1])
	case 1:
		c.SolveLowerInto(dst[j], dst[j])
	}
}

// solveLower4 is SolveLowerInto on four columns, in place, in one sweep of
// L. Only the columns are live across the inner loop, which keeps its
// index in a register.
func (c *Cholesky) solveLower4(d0, d1, d2, d3 []float64) {
	n := c.N
	d0, d1, d2, d3 = d0[:n], d1[:n], d2[:n], d3[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		r := row[:i]
		s0, s1, s2, s3 := d0[i], d1[i], d2[i], d3[i]
		x0, x1, x2, x3 := d0[:len(r)], d1[:len(r)], d2[:len(r)], d3[:len(r)]
		for k, l := range r {
			s0 -= l * x0[k]
			s1 -= l * x1[k]
			s2 -= l * x2[k]
			s3 -= l * x3[k]
		}
		p := row[i]
		d0[i], d1[i], d2[i], d3[i] = s0/p, s1/p, s2/p, s3/p
	}
}

// solveLower3 is solveLower4 on three columns.
func (c *Cholesky) solveLower3(d0, d1, d2 []float64) {
	n := c.N
	d0, d1, d2 = d0[:n], d1[:n], d2[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		r := row[:i]
		s0, s1, s2 := d0[i], d1[i], d2[i]
		x0, x1, x2 := d0[:len(r)], d1[:len(r)], d2[:len(r)]
		for k, l := range r {
			s0 -= l * x0[k]
			s1 -= l * x1[k]
			s2 -= l * x2[k]
		}
		p := row[i]
		d0[i], d1[i], d2[i] = s0/p, s1/p, s2/p
	}
}

// solveLower2 is solveLower4 on two columns.
func (c *Cholesky) solveLower2(d0, d1 []float64) {
	n := c.N
	d0, d1 = d0[:n], d1[:n]
	for i := 0; i < n; i++ {
		row := c.L.Row(i)
		r := row[:i]
		s0, s1 := d0[i], d1[i]
		x0, x1 := d0[:len(r)], d1[:len(r)]
		for k, l := range r {
			s0 -= l * x0[k]
			s1 -= l * x1[k]
		}
		p := row[i]
		d0[i], d1[i] = s0/p, s1/p
	}
}

// SolveUpperT returns x solving Lᵀ·x = y (back substitution). Because
// A⁻¹ = L⁻ᵀL⁻¹, this is also the map z ↦ L⁻ᵀz used to draw samples with
// covariance A⁻¹.
func (c *Cholesky) SolveUpperT(y []float64) []float64 {
	x := make([]float64, c.N)
	c.SolveUpperTInto(x, y)
	return x
}

// SolveUpperTInto solves Lᵀ·x = y into dst without allocating. dst may
// alias y. Instead of the textbook inner product over a column of L (a
// strided, cache-hostile walk of the row-major factor), it sweeps rows of L:
// as each x[i] is resolved, its contribution L[i][k]·x[i] is subtracted from
// the still-pending entries k < i, so every memory access is contiguous.
func (c *Cholesky) SolveUpperTInto(dst, y []float64) {
	n := c.N
	if len(y) != n || len(dst) != n {
		panic("linalg: Cholesky.SolveUpperTInto dimension mismatch")
	}
	if n == 0 {
		return
	}
	if &dst[0] != &y[0] {
		copy(dst, y)
	}
	for i := n - 1; i >= 0; i-- {
		row := c.L.Row(i)
		xi := dst[i] / row[i]
		dst[i] = xi
		for k := 0; k < i; k++ {
			dst[k] -= row[k] * xi
		}
	}
}

// SolveMatrix solves A·X = B column by column, returning X. A single column
// buffer is reused across columns; no per-column allocation.
func (c *Cholesky) SolveMatrix(b *Matrix) *Matrix {
	if b.Rows != c.N {
		panic("linalg: Cholesky.SolveMatrix dimension mismatch")
	}
	out := NewMatrix(b.Rows, b.Cols)
	col := make([]float64, b.Rows)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			col[i] = b.At(i, j)
		}
		c.SolveInto(col, col)
		for i := 0; i < b.Rows; i++ {
			out.Set(i, j, col[i])
		}
	}
	return out
}

// Inverse returns A⁻¹ exploiting symmetry, LAPACK dpotri-style: first
// G = L⁻¹ (lower triangular, built row by row with contiguous axpy updates),
// then A⁻¹ = GᵀG accumulated rank-1 row by row into the upper triangle and
// mirrored — ~n³/3 streaming work against the n³ of a column-by-column
// solve. The result is exactly symmetric. Prefer Solve when only products
// are needed.
func (c *Cholesky) Inverse() *Matrix {
	n := c.N
	// G = L⁻¹: row i solves G[i][:] from the rows above it,
	//   G[i][j] = (δ_ij − Σ_{k<i} L[i][k]·G[k][j]) / L[i][i].
	g := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		lrow := c.L.Row(i)
		grow := g.Row(i)
		grow[i] = 1
		for k := 0; k < i; k++ {
			coef := lrow[k]
			if coef == 0 {
				continue
			}
			gk := g.Row(k)[: k+1 : k+1]
			for j, gkj := range gk {
				grow[j] -= coef * gkj
			}
		}
		inv := 1 / lrow[i]
		for j := 0; j <= i; j++ {
			grow[j] *= inv
		}
	}
	// A⁻¹ = GᵀG: accumulate each row of G as a rank-1 update of the upper
	// triangle (row k only touches the leading (k+1)×(k+1) block).
	out := NewMatrix(n, n)
	for k := 0; k < n; k++ {
		gk := g.Row(k)[: k+1 : k+1]
		for i, gki := range gk {
			if gki == 0 {
				continue
			}
			orow := out.Row(i)
			for j := i; j <= k; j++ {
				orow[j] += gki * gk[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		orow := out.Row(i)
		for j := i + 1; j < n; j++ {
			out.Set(j, i, orow[j])
		}
	}
	return out
}

// LogDet returns log|A| = 2·Σ log L_ii.
func (c *Cholesky) LogDet() float64 {
	var s float64
	for i := 0; i < c.N; i++ {
		s += math.Log(c.L.At(i, i))
	}
	return 2 * s
}
