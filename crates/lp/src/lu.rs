//! Sparse LU factorisation with partial pivoting.
//!
//! Left-looking Gilbert–Peierls: each column of the input matrix is
//! processed by a sparse triangular solve against the already-computed part
//! of `L` (reachability found by DFS over the column graph), followed by
//! partial pivoting on the not-yet-pivoted rows.
//!
//! The factorisation satisfies `P·B = L·U` with `L` unit lower triangular
//! and `U` upper triangular in pivot order; `P` maps pivot order to original
//! row indices. Both ordinary and transpose solves are provided — the
//! simplex method needs `B·x = a` (FTRAN) and `Bᵀ·y = c_B` (BTRAN) — in
//! dense and sparsity-exploiting variants.
//!
//! Because the construction is left-looking, column `j` of `L`/`U` depends
//! only on input columns `0..=j` (and the pivot rows they chose). A new
//! factorisation whose leading columns match an existing one can therefore
//! reuse that prefix verbatim — see [`SparseLu::refactorize_from`] — and the
//! result is bit-for-bit identical to refactorising from scratch; no
//! separate pivot-compatibility check is needed.

/// Error returned when the matrix is numerically singular.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularMatrix {
    /// Column at which no acceptable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

const PIVOT_TOL: f64 = 1e-11;
const UNPIVOTED: usize = usize::MAX;

/// Reusable scratch space for [`SparseLu::solve_sparse`] and
/// [`SparseLu::solve_transpose_sparse`].
///
/// Holds the DFS markers and stacks of the symbolic phases so repeated
/// solves (the simplex FTRAN/BTRAN inner loops) allocate nothing. One
/// instance may be shared across factorisations of different matrices; it
/// grows to the largest dimension seen.
#[derive(Clone, Debug, Default)]
pub struct SolveScratch {
    visited: Vec<bool>,
    stack: Vec<(usize, usize)>,
    reach_l: Vec<usize>,
    reach_u: Vec<usize>,
}

impl SolveScratch {
    fn ensure(&mut self, n: usize) {
        if self.visited.len() < n {
            self.visited.resize(n, false);
        }
    }
}

/// A sparse LU factorisation of a square matrix.
#[derive(Clone, Debug)]
pub struct SparseLu {
    n: usize,
    // L (unit diagonal implicit), stored by column in *original* row indices.
    l_ptr: Vec<usize>,
    l_rows: Vec<usize>,
    l_vals: Vec<f64>,
    // U stored by column in *pivot* indices (strictly above diagonal).
    u_ptr: Vec<usize>,
    u_rows: Vec<usize>,
    u_vals: Vec<f64>,
    diag: Vec<f64>,
    // pivot_row[k] = original row pivoted at step k; pivot_of_row inverse.
    pivot_row: Vec<usize>,
    pivot_of_row: Vec<usize>,
    // Row-wise (CSR) *pattern* mirrors, values omitted, used by the sparse
    // transpose symbolic walks: `ut` lists for each pivot m the columns
    // k > m whose U column contains row m; `lt` lists for each pivot p the
    // columns k < p whose L column contains original row `pivot_row[p]`.
    ut_ptr: Vec<usize>,
    ut_cols: Vec<usize>,
    lt_ptr: Vec<usize>,
    lt_cols: Vec<usize>,
}

impl SparseLu {
    fn empty(n: usize) -> SparseLu {
        SparseLu {
            n,
            l_ptr: vec![0],
            l_rows: Vec::new(),
            l_vals: Vec::new(),
            u_ptr: vec![0],
            u_rows: Vec::new(),
            u_vals: Vec::new(),
            diag: vec![0.0; n],
            pivot_row: vec![0; n],
            pivot_of_row: vec![UNPIVOTED; n],
            ut_ptr: Vec::new(),
            ut_cols: Vec::new(),
            lt_ptr: Vec::new(),
            lt_cols: Vec::new(),
        }
    }

    /// Factorises an `n×n` matrix given by a column-provider callback:
    /// `column(j, buf)` must fill `buf` with the `(row, value)` entries of
    /// column `j` (unsorted is fine, duplicates are not allowed).
    pub fn factorize<F>(n: usize, mut column: F) -> Result<SparseLu, SingularMatrix>
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        let mut lu = SparseLu::empty(n);
        lu.factorize_columns(0, &mut column)?;
        lu.build_row_patterns();
        Ok(lu)
    }

    /// Factorises a matrix that shares its leading `keep` columns with
    /// `prev`, reusing the already-computed `L`/`U` prefix.
    ///
    /// `column` is only consulted for columns `keep..n`. Left-looking
    /// construction makes column `j` a function of input columns `0..=j`
    /// alone, so the reused prefix — and the remainder built on top of it —
    /// is bit-for-bit identical to a full [`SparseLu::factorize`] of the
    /// whole matrix. `keep` is typically the longest common prefix of the
    /// old and new simplex basis column lists.
    pub fn refactorize_from<F>(
        prev: &SparseLu,
        keep: usize,
        mut column: F,
    ) -> Result<SparseLu, SingularMatrix>
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        debug_assert!(keep <= prev.n);
        let mut lu = prev.prefix(keep);
        lu.factorize_columns(keep, &mut column)?;
        lu.build_row_patterns();
        Ok(lu)
    }

    /// A partially-factorised copy holding only columns `0..keep`.
    fn prefix(&self, keep: usize) -> SparseLu {
        let ln = self.l_ptr[keep];
        let un = self.u_ptr[keep];
        let mut pivot_of_row = vec![UNPIVOTED; self.n];
        let mut pivot_row = vec![0; self.n];
        pivot_row[..keep].copy_from_slice(&self.pivot_row[..keep]);
        for (k, &r) in pivot_row[..keep].iter().enumerate() {
            pivot_of_row[r] = k;
        }
        let mut diag = vec![0.0; self.n];
        diag[..keep].copy_from_slice(&self.diag[..keep]);
        SparseLu {
            n: self.n,
            l_ptr: self.l_ptr[..=keep].to_vec(),
            l_rows: self.l_rows[..ln].to_vec(),
            l_vals: self.l_vals[..ln].to_vec(),
            u_ptr: self.u_ptr[..=keep].to_vec(),
            u_rows: self.u_rows[..un].to_vec(),
            u_vals: self.u_vals[..un].to_vec(),
            diag,
            pivot_row,
            pivot_of_row,
            ut_ptr: Vec::new(),
            ut_cols: Vec::new(),
            lt_ptr: Vec::new(),
            lt_cols: Vec::new(),
        }
    }

    /// Runs the left-looking loop for columns `start..n`. Columns `0..start`
    /// must already be factored (`l_ptr`/`u_ptr` have `start + 1` entries).
    fn factorize_columns<F>(&mut self, start: usize, column: &mut F) -> Result<(), SingularMatrix>
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        let n = self.n;
        let mut x = vec![0.0f64; n]; // dense accumulator
        let mut in_pattern = vec![false; n]; // row -> currently in pattern
        let mut pattern: Vec<usize> = Vec::new(); // touched rows
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        let mut reached: Vec<usize> = Vec::new(); // pivot indices to apply
        let mut visited = vec![false; n]; // pivot index -> visited this column
        let mut stack: Vec<(usize, usize)> = Vec::new(); // DFS (pivot, l-cursor)

        for j in start..n {
            colbuf.clear();
            column(j, &mut colbuf);

            // Scatter column j and collect DFS roots.
            pattern.clear();
            reached.clear();
            for &(r, v) in &colbuf {
                debug_assert!(r < n);
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                    x[r] = v;
                } else {
                    x[r] += v;
                }
            }

            // Symbolic phase: find every pivot column reachable from the
            // pattern through L (fill-in), iteratively to bound stack depth.
            for pi in 0..pattern.len() {
                let r = pattern[pi];
                let k0 = self.pivot_of_row[r];
                if k0 == UNPIVOTED || visited[k0] {
                    continue;
                }
                visited[k0] = true;
                stack.push((k0, self.l_ptr[k0]));
                while let Some(&(k, cursor)) = stack.last() {
                    let end = self.l_ptr[k + 1];
                    let mut next_child = None;
                    let mut c = cursor;
                    while c < end {
                        let r2 = self.l_rows[c];
                        c += 1;
                        let k2 = self.pivot_of_row[r2];
                        if k2 != UNPIVOTED && !visited[k2] {
                            next_child = Some(k2);
                            break;
                        }
                    }
                    stack.last_mut().unwrap().1 = c;
                    match next_child {
                        Some(k2) => {
                            visited[k2] = true;
                            stack.push((k2, self.l_ptr[k2]));
                        }
                        None => {
                            reached.push(k);
                            stack.pop();
                        }
                    }
                }
            }
            // Dependencies always point from smaller to larger pivot index,
            // so ascending order is a valid elimination order.
            reached.sort_unstable();

            // Numeric phase: sparse lower-triangular solve.
            for &k in &reached {
                visited[k] = false; // reset for next column
                let xk = x[self.pivot_row[k]];
                if xk == 0.0 {
                    continue;
                }
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    let r2 = self.l_rows[idx];
                    if !in_pattern[r2] {
                        in_pattern[r2] = true;
                        pattern.push(r2);
                        x[r2] = 0.0;
                    }
                    x[r2] -= self.l_vals[idx] * xk;
                }
            }

            // Partial pivoting over not-yet-pivoted rows.
            let mut best_row = UNPIVOTED;
            let mut best_abs = 0.0f64;
            for &r in &pattern {
                if self.pivot_of_row[r] == UNPIVOTED {
                    let a = x[r].abs();
                    if a > best_abs {
                        best_abs = a;
                        best_row = r;
                    }
                }
            }
            if best_row == UNPIVOTED || best_abs <= PIVOT_TOL {
                // Clean up scratch before erroring out.
                for &r in &pattern {
                    in_pattern[r] = false;
                    x[r] = 0.0;
                }
                return Err(SingularMatrix { column: j });
            }

            // Emit U column (pivoted rows) and L column (unpivoted rows).
            for &r in &pattern {
                let k = self.pivot_of_row[r];
                if k != UNPIVOTED && x[r] != 0.0 {
                    self.u_rows.push(k);
                    self.u_vals.push(x[r]);
                }
            }
            self.u_ptr.push(self.u_rows.len());
            let pivot_val = x[best_row];
            self.diag[j] = pivot_val;
            for &r in &pattern {
                if self.pivot_of_row[r] == UNPIVOTED && r != best_row && x[r] != 0.0 {
                    self.l_rows.push(r);
                    self.l_vals.push(x[r] / pivot_val);
                }
            }
            self.l_ptr.push(self.l_rows.len());
            self.pivot_of_row[best_row] = j;
            self.pivot_row[j] = best_row;

            // Clear scratch.
            for &r in &pattern {
                in_pattern[r] = false;
                x[r] = 0.0;
            }
        }
        Ok(())
    }

    /// Builds the row-wise pattern mirrors of `U` and `L` (counting sort;
    /// values are not duplicated). These drive the symbolic reachability of
    /// [`SparseLu::solve_transpose_sparse`].
    fn build_row_patterns(&mut self) {
        let n = self.n;
        // U: entry (m, k) lives in column k with u_rows == m; mirror keyed
        // by m. The two-slot shift lets `ut_ptr[m + 1]` double as the fill
        // cursor for row m and land on the final CSR offsets.
        self.ut_ptr.clear();
        self.ut_ptr.resize(n + 2, 0);
        for &m in &self.u_rows {
            self.ut_ptr[m + 2] += 1;
        }
        for i in 2..n + 2 {
            self.ut_ptr[i] += self.ut_ptr[i - 1];
        }
        self.ut_cols.clear();
        self.ut_cols.resize(self.u_rows.len(), 0);
        for k in 0..n {
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                let m = self.u_rows[idx];
                self.ut_cols[self.ut_ptr[m + 1]] = k;
                self.ut_ptr[m + 1] += 1;
            }
        }
        self.ut_ptr.pop();

        // L: entry in column k with original row r belongs to pivot
        // p = pivot_of_row[r] > k; mirror keyed by p.
        self.lt_ptr.clear();
        self.lt_ptr.resize(n + 2, 0);
        for &r in &self.l_rows {
            self.lt_ptr[self.pivot_of_row[r] + 2] += 1;
        }
        for i in 2..n + 2 {
            self.lt_ptr[i] += self.lt_ptr[i - 1];
        }
        self.lt_cols.clear();
        self.lt_cols.resize(self.l_rows.len(), 0);
        for k in 0..n {
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                let p = self.pivot_of_row[self.l_rows[idx]];
                self.lt_cols[self.lt_ptr[p + 1]] = k;
                self.lt_ptr[p + 1] += 1;
            }
        }
        self.lt_ptr.pop();
    }

    /// Matrix dimension.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros in `L` and `U` (diagnostics).
    pub fn fill_nnz(&self) -> usize {
        self.l_rows.len() + self.u_rows.len() + self.n
    }

    /// The pivot permutation: element `k` is the original row pivoted at
    /// elimination step `k`. Two factorisations of the same basis are
    /// identical iff their pivot rows (and values) agree — the differential
    /// suites compare this to certify warm ≡ cold.
    #[inline]
    pub fn pivot_rows(&self) -> &[usize] {
        &self.pivot_row[..self.n]
    }

    /// Solves `B·x = b`.
    ///
    /// `b` is indexed by original row on input; on output it is garbage.
    /// The solution is written to `out`, indexed by pivot order — which for
    /// a simplex basis equals the basis *position*.
    pub fn solve(&self, b: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(b.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        // Forward: L·w = P·b, w in pivot coordinates (stored into out).
        for k in 0..self.n {
            let wk = b[self.pivot_row[k]];
            out[k] = wk;
            if wk != 0.0 {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    b[self.l_rows[idx]] -= self.l_vals[idx] * wk;
                }
            }
        }
        // Backward: U·x = w, processed by columns.
        for k in (0..self.n).rev() {
            let xk = out[k] / self.diag[k];
            out[k] = xk;
            if xk != 0.0 {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    out[self.u_rows[idx]] -= self.u_vals[idx] * xk;
                }
            }
        }
    }

    /// Solves `B·x = b` exploiting sparsity of the right-hand side.
    ///
    /// `b` must be zero everywhere except (possibly) at the rows listed in
    /// `b_pattern`, and `out` must be entirely zero on entry. The nonzero
    /// structure of the solution is discovered symbolically (DFS
    /// reachability through `L`, then through `U`, exactly as in
    /// Gilbert–Peierls factorisation), so the work is proportional to the
    /// entries actually touched instead of `n`. On return `b` has been
    /// restored to all-zero, `out` holds the solution in pivot order, and
    /// `out_pattern` lists every position of `out` that may be nonzero.
    pub fn solve_sparse(
        &self,
        b: &mut [f64],
        b_pattern: &[usize],
        out: &mut [f64],
        out_pattern: &mut Vec<usize>,
        scratch: &mut SolveScratch,
    ) {
        debug_assert_eq!(b.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        scratch.ensure(self.n);

        // Symbolic forward pass: pivot indices reachable from the pattern
        // through L (edges k → pivot-of(l_rows of column k)). DFS postorder
        // places every node after its descendants, so *reverse* postorder
        // is a valid elimination order — no sorting required.
        scratch.reach_l.clear();
        for &r in b_pattern {
            let k0 = self.pivot_of_row[r];
            if scratch.visited[k0] {
                continue;
            }
            scratch.visited[k0] = true;
            scratch.stack.push((k0, self.l_ptr[k0]));
            while let Some(&(k, cursor)) = scratch.stack.last() {
                let end = self.l_ptr[k + 1];
                let mut next_child = None;
                let mut c = cursor;
                while c < end {
                    let k2 = self.pivot_of_row[self.l_rows[c]];
                    c += 1;
                    if !scratch.visited[k2] {
                        next_child = Some(k2);
                        break;
                    }
                }
                scratch.stack.last_mut().unwrap().1 = c;
                match next_child {
                    Some(k2) => {
                        scratch.visited[k2] = true;
                        scratch.stack.push((k2, self.l_ptr[k2]));
                    }
                    None => {
                        scratch.reach_l.push(k);
                        scratch.stack.pop();
                    }
                }
            }
        }
        // Numeric forward: L·w = P·b on the reached positions only, in
        // reverse postorder (dependencies point from smaller to larger
        // pivot index; a node's updates land only on its descendants).
        for &k in scratch.reach_l.iter().rev() {
            scratch.visited[k] = false;
            let wk = b[self.pivot_row[k]];
            out[k] = wk;
            if wk != 0.0 {
                for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                    b[self.l_rows[idx]] -= self.l_vals[idx] * wk;
                }
            }
        }
        // Every row touched (inputs and fill) has its pivot in the reach
        // set, so this restores b to all-zero.
        for &k in &scratch.reach_l {
            b[self.pivot_row[k]] = 0.0;
        }

        // Symbolic backward pass: positions reachable from the forward
        // pattern through U (edges k → u_rows of column k, pointing from
        // larger to smaller pivot index); reverse postorder again gives a
        // valid substitution order.
        out_pattern.clear();
        for &k0 in &scratch.reach_l {
            if scratch.visited[k0] {
                continue;
            }
            scratch.visited[k0] = true;
            scratch.stack.push((k0, self.u_ptr[k0]));
            while let Some(&(k, cursor)) = scratch.stack.last() {
                let end = self.u_ptr[k + 1];
                let mut next_child = None;
                let mut c = cursor;
                while c < end {
                    let k2 = self.u_rows[c];
                    c += 1;
                    if !scratch.visited[k2] {
                        next_child = Some(k2);
                        break;
                    }
                }
                scratch.stack.last_mut().unwrap().1 = c;
                match next_child {
                    Some(k2) => {
                        scratch.visited[k2] = true;
                        scratch.stack.push((k2, self.u_ptr[k2]));
                    }
                    None => {
                        out_pattern.push(k);
                        scratch.stack.pop();
                    }
                }
            }
        }
        // Numeric backward: U·x = w over the reached positions.
        for &k in out_pattern.iter().rev() {
            scratch.visited[k] = false;
            let xk = out[k] / self.diag[k];
            out[k] = xk;
            if xk != 0.0 {
                for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                    out[self.u_rows[idx]] -= self.u_vals[idx] * xk;
                }
            }
        }
    }

    /// Solves `Bᵀ·y = c`.
    ///
    /// `c` is indexed by basis position (pivot order) on input and is
    /// consumed as scratch. The solution is written to `out`, indexed by
    /// original row.
    pub fn solve_transpose(&self, c: &mut [f64], out: &mut [f64]) {
        debug_assert_eq!(c.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        // Forward: Uᵀ·z = c (U column k gives U[m, k], m < k).
        for k in 0..self.n {
            let mut s = c[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= self.u_vals[idx] * c[self.u_rows[idx]];
            }
            c[k] = s / self.diag[k];
            // c[m] for m < k already hold final z values; entries m > k are
            // untouched, so in-place forward substitution is safe.
        }
        // Backward: Lᵀ·w = z; L column k holds rows pivoted later (κ(r) > k).
        for k in (0..self.n).rev() {
            let mut s = c[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_vals[idx] * c[self.pivot_of_row[self.l_rows[idx]]];
            }
            c[k] = s;
        }
        // y = Pᵀ·w.
        for k in 0..self.n {
            out[self.pivot_row[k]] = c[k];
        }
    }

    /// Solves `Bᵀ·y = c` exploiting sparsity of the right-hand side.
    ///
    /// `c` (indexed by pivot order) must be zero outside the positions
    /// listed in `c_pattern`, and `out` (indexed by original row) must be
    /// entirely zero on entry. The symbolic phases walk the row-wise
    /// pattern mirrors (`Uᵀ` then `Lᵀ`), while the numeric phases *gather*
    /// through the column-stored factors in exactly the order of
    /// [`SparseLu::solve_transpose`] — so every computed entry is
    /// bit-identical to the dense path (untouched entries stay `0.0` where
    /// dense may produce a differently-signed zero). On return `c` is
    /// restored to all-zero and `out_pattern` lists every original row of
    /// `out` that may be nonzero.
    pub fn solve_transpose_sparse(
        &self,
        c: &mut [f64],
        c_pattern: &[usize],
        out: &mut [f64],
        out_pattern: &mut Vec<usize>,
        scratch: &mut SolveScratch,
    ) {
        debug_assert_eq!(c.len(), self.n);
        debug_assert_eq!(out.len(), self.n);
        debug_assert_eq!(self.ut_ptr.len(), self.n + 1, "row patterns not built");
        scratch.ensure(self.n);

        // Symbolic forward pass: z[k] can be nonzero iff k is reachable
        // from the c-pattern through Uᵀ — edges m → k for every column
        // k > m whose U column contains row m (the `ut` mirror). Reverse
        // postorder puts ancestors (smaller k) first: a valid order for the
        // ascending forward substitution.
        scratch.reach_u.clear();
        for &k0 in c_pattern {
            if scratch.visited[k0] {
                continue;
            }
            scratch.visited[k0] = true;
            scratch.stack.push((k0, self.ut_ptr[k0]));
            while let Some(&(k, cursor)) = scratch.stack.last() {
                let end = self.ut_ptr[k + 1];
                let mut next_child = None;
                let mut cur = cursor;
                while cur < end {
                    let k2 = self.ut_cols[cur];
                    cur += 1;
                    if !scratch.visited[k2] {
                        next_child = Some(k2);
                        break;
                    }
                }
                scratch.stack.last_mut().unwrap().1 = cur;
                match next_child {
                    Some(k2) => {
                        scratch.visited[k2] = true;
                        scratch.stack.push((k2, self.ut_ptr[k2]));
                    }
                    None => {
                        scratch.reach_u.push(k);
                        scratch.stack.pop();
                    }
                }
            }
        }
        // Numeric forward: gather s = c[k] − Σ U[m,k]·z[m] over column k's
        // full stored pattern, identical to the dense loop (entries outside
        // the reach set are zero and contribute nothing).
        for &k in scratch.reach_u.iter().rev() {
            scratch.visited[k] = false;
            let mut s = c[k];
            for idx in self.u_ptr[k]..self.u_ptr[k + 1] {
                s -= self.u_vals[idx] * c[self.u_rows[idx]];
            }
            c[k] = s / self.diag[k];
        }

        // Symbolic backward pass: w[k] can be nonzero iff k is reachable
        // from the z-pattern through Lᵀ — edges p → k for every column
        // k < p whose L column contains original row pivot_row[p] (the `lt`
        // mirror). Reverse postorder puts larger k first: a valid order for
        // the descending backward substitution.
        scratch.reach_l.clear();
        for &k0 in &scratch.reach_u {
            if scratch.visited[k0] {
                continue;
            }
            scratch.visited[k0] = true;
            scratch.stack.push((k0, self.lt_ptr[k0]));
            while let Some(&(k, cursor)) = scratch.stack.last() {
                let end = self.lt_ptr[k + 1];
                let mut next_child = None;
                let mut cur = cursor;
                while cur < end {
                    let k2 = self.lt_cols[cur];
                    cur += 1;
                    if !scratch.visited[k2] {
                        next_child = Some(k2);
                        break;
                    }
                }
                scratch.stack.last_mut().unwrap().1 = cur;
                match next_child {
                    Some(k2) => {
                        scratch.visited[k2] = true;
                        scratch.stack.push((k2, self.lt_ptr[k2]));
                    }
                    None => {
                        scratch.reach_l.push(k);
                        scratch.stack.pop();
                    }
                }
            }
        }
        // Numeric backward: gather s = z[k] − Σ L[r,k]·w[κ(r)] over column
        // k's full stored pattern, again identical to the dense loop.
        for &k in scratch.reach_l.iter().rev() {
            scratch.visited[k] = false;
            let mut s = c[k];
            for idx in self.l_ptr[k]..self.l_ptr[k + 1] {
                s -= self.l_vals[idx] * c[self.pivot_of_row[self.l_rows[idx]]];
            }
            c[k] = s;
        }

        // Scatter y = Pᵀ·w, record the pattern, and restore c to zero. The
        // backward reach contains the forward reach (its DFS roots), so one
        // sweep clears everything written.
        out_pattern.clear();
        for &k in &scratch.reach_l {
            out[self.pivot_row[k]] = c[k];
            out_pattern.push(self.pivot_row[k]);
            c[k] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(usize, f64)>> {
        let n = a.len();
        (0..n)
            .map(|j| {
                (0..n)
                    .filter(|&i| a[i][j] != 0.0)
                    .map(|i| (i, a[i][j]))
                    .collect()
            })
            .collect()
    }

    fn factor(a: &[&[f64]]) -> SparseLu {
        let cols = dense_cols(a);
        SparseLu::factorize(a.len(), |j, buf| buf.extend_from_slice(&cols[j])).unwrap()
    }

    fn check_solve(a: &[&[f64]], b: &[f64]) {
        let n = a.len();
        let lu = factor(a);
        let mut rhs = b.to_vec();
        let mut x = vec![0.0; n];
        lu.solve(&mut rhs, &mut x);
        // x is in pivot order; column k of the basis is column k of A here,
        // so the solution for variable j is x[j] directly (columns were
        // processed in natural order and pivot order == column order).
        for i in 0..n {
            let ax: f64 = (0..n).map(|j| a[i][j] * x[j]).sum();
            assert!((ax - b[i]).abs() < 1e-9, "row {i}: {ax} vs {}", b[i]);
        }
    }

    fn check_solve_transpose(a: &[&[f64]], c: &[f64]) {
        let n = a.len();
        let lu = factor(a);
        let mut rhs = c.to_vec();
        let mut y = vec![0.0; n];
        lu.solve_transpose(&mut rhs, &mut y);
        // Verify Aᵀ y = c, i.e. for each column j: Σ_i A[i][j]·y[i] = c[j].
        for j in 0..n {
            let aty: f64 = (0..n).map(|i| a[i][j] * y[i]).sum();
            assert!((aty - c[j]).abs() < 1e-9, "col {j}: {aty} vs {}", c[j]);
        }
    }

    #[test]
    fn identity() {
        let a: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 1.0]];
        check_solve(a, &[3.0, -4.0]);
        check_solve_transpose(a, &[1.5, 2.5]);
    }

    #[test]
    fn requires_row_pivoting() {
        // Zero on the natural diagonal forces a permutation.
        let a: &[&[f64]] = &[&[0.0, 2.0, 0.0], &[1.0, 0.0, 0.5], &[0.0, 1.0, 1.0]];
        check_solve(a, &[1.0, 2.0, 3.0]);
        check_solve_transpose(a, &[-1.0, 0.5, 2.0]);
    }

    #[test]
    fn dense_3x3() {
        let a: &[&[f64]] = &[&[4.0, -2.0, 1.0], &[3.0, 6.0, -4.0], &[2.0, 1.0, 8.0]];
        check_solve(a, &[12.0, -25.0, 32.0]);
        check_solve_transpose(a, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn singular_detected() {
        let cols = dense_cols(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let r = SparseLu::factorize(2, |j, buf| buf.extend_from_slice(&cols[j]));
        assert!(r.is_err());
    }

    fn random_sparse(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut a = vec![vec![0.0f64; n]; n];
        let mut state = seed;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) - 1.0
        };
        for i in 0..n {
            for _ in 0..5 {
                let j = ((rnd().abs() * n as f64) as usize).min(n - 1);
                a[i][j] += rnd();
            }
            a[i][i] += 8.0; // dominance => nonsingular
        }
        a
    }

    #[test]
    fn larger_random_matrix() {
        let a = random_sparse(60, 0x12345678);
        let refs: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let b: Vec<f64> = (0..60).map(|i| (i as f64) * 0.1 - 2.0).collect();
        check_solve(&refs, &b);
        check_solve_transpose(&refs, &b);
    }

    #[test]
    fn sparse_solve_matches_dense_solve() {
        // Sparse matrix, sparse right-hand sides: solve_sparse must agree
        // with the dense path, restore b to zero, and report a pattern
        // covering every nonzero of the solution.
        let a: &[&[f64]] = &[
            &[2.0, 0.0, 0.0, 1.0, 0.0],
            &[0.0, 3.0, 0.0, 0.0, 0.0],
            &[1.0, 0.0, 4.0, 0.0, 0.0],
            &[0.0, 0.5, 0.0, 5.0, 2.0],
            &[0.0, 0.0, 1.0, 0.0, 6.0],
        ];
        let n = a.len();
        let lu = factor(a);
        let mut scratch = SolveScratch::default();
        for &nz in &[0usize, 1, 2, 3, 4] {
            // One-hot and two-hot right-hand sides.
            for &nz2 in &[nz, (nz + 2) % n] {
                let mut b_dense = vec![0.0; n];
                b_dense[nz] = 1.5;
                b_dense[nz2] += -2.0;
                let mut expect = b_dense.clone();
                let mut x_dense = vec![0.0; n];
                lu.solve(&mut expect, &mut x_dense);

                let mut b = b_dense.clone();
                let pattern: Vec<usize> = if nz == nz2 { vec![nz] } else { vec![nz, nz2] };
                let mut x = vec![0.0; n];
                let mut out_pattern = Vec::new();
                lu.solve_sparse(&mut b, &pattern, &mut x, &mut out_pattern, &mut scratch);
                assert!(b.iter().all(|&v| v == 0.0), "b not restored to zero");
                for k in 0..n {
                    assert!(
                        (x[k] - x_dense[k]).abs() < 1e-12,
                        "x[{k}] = {} vs dense {}",
                        x[k],
                        x_dense[k]
                    );
                    if x[k] != 0.0 {
                        assert!(out_pattern.contains(&k), "pattern misses nonzero {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn sparse_transpose_matches_dense_transpose() {
        // Sparse right-hand sides through solve_transpose_sparse must agree
        // bit-for-bit with the dense transpose path, restore c to zero, and
        // report a pattern covering every nonzero of the solution.
        for (n, seed) in [(20usize, 0xfeedu64), (60, 0xdeadbeef)] {
            let a = random_sparse(n, seed);
            let refs: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
            let lu = factor(&refs);
            let mut scratch = SolveScratch::default();
            for nz in 0..n {
                for &nz2 in &[nz, (nz + 7) % n, (nz + n / 2) % n] {
                    let mut c_dense = vec![0.0; n];
                    c_dense[nz] = 1.25;
                    c_dense[nz2] += -0.75;
                    let mut expect = c_dense.clone();
                    let mut y_dense = vec![0.0; n];
                    lu.solve_transpose(&mut expect, &mut y_dense);

                    let mut c = c_dense.clone();
                    let mut pattern = vec![nz];
                    if nz2 != nz {
                        pattern.push(nz2);
                    }
                    let mut y = vec![0.0; n];
                    let mut out_pattern = Vec::new();
                    lu.solve_transpose_sparse(
                        &mut c,
                        &pattern,
                        &mut y,
                        &mut out_pattern,
                        &mut scratch,
                    );
                    assert!(c.iter().all(|&v| v == 0.0), "c not restored to zero");
                    for r in 0..n {
                        assert!(
                            y[r] == y_dense[r],
                            "y[{r}] = {} vs dense {}",
                            y[r],
                            y_dense[r]
                        );
                        if y[r] != 0.0 {
                            assert!(out_pattern.contains(&r), "pattern misses nonzero {r}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn partial_refactorisation_is_bit_identical() {
        // Factor A, then build B sharing a leading column prefix with A and
        // differing afterwards; refactorize_from must equal a from-scratch
        // factorisation of B exactly (pivot rows, values, solves).
        let n = 50;
        let a = random_sparse(n, 0x1357);
        let mut b = a.clone();
        let mut state = 0x2468u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64 / 2.0) - 1.0
        };
        for keep in [0usize, 1, 17, 30, n - 1, n] {
            // B = A on columns 0..keep, perturbed (dense-ish, so pivoting
            // reshuffles) on columns keep..n.
            for col in 0..n {
                for row in 0..n {
                    b[row][col] = a[row][col];
                    if col >= keep {
                        b[row][col] += rnd() * 0.5;
                    }
                }
                if col >= keep {
                    b[col][col] += 4.0;
                }
            }
            let refs_b: Vec<&[f64]> = b.iter().map(|r| r.as_slice()).collect();
            let cols_b = dense_cols(&refs_b);
            let refs_a: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
            let lu_a = factor(&refs_a);
            let cold = SparseLu::factorize(n, |j, buf| buf.extend_from_slice(&cols_b[j])).unwrap();
            let warm = SparseLu::refactorize_from(&lu_a, keep, |j, buf| {
                assert!(j >= keep, "column callback consulted inside the prefix");
                buf.extend_from_slice(&cols_b[j])
            })
            .unwrap();

            assert_eq!(warm.pivot_rows(), cold.pivot_rows(), "keep={keep}");
            assert_eq!(warm.fill_nnz(), cold.fill_nnz(), "keep={keep}");
            let rhs: Vec<f64> = (0..n).map(|i| (i as f64) * 0.3 - 4.0).collect();
            let (mut b1, mut b2) = (rhs.clone(), rhs.clone());
            let mut x1 = vec![0.0; n];
            let mut x2 = vec![0.0; n];
            warm.solve(&mut b1, &mut x1);
            cold.solve(&mut b2, &mut x2);
            assert!(x1 == x2, "keep={keep}: warm/cold FTRAN differ");
            let (mut c1, mut c2) = (rhs.clone(), rhs.clone());
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            warm.solve_transpose(&mut c1, &mut y1);
            cold.solve_transpose(&mut c2, &mut y2);
            assert!(y1 == y2, "keep={keep}: warm/cold BTRAN differ");
        }
    }

    #[test]
    fn pivot_order_differs_from_column_order_is_consistent() {
        // Solve with a matrix whose pivoting shuffles rows, verify A·x = b
        // through the public interface only.
        let a: &[&[f64]] = &[
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 3.0, 1.0],
            &[5.0, 0.0, 0.0, 2.0],
            &[0.0, 0.5, 0.0, 1.0],
        ];
        check_solve(a, &[1.0, -1.0, 2.0, 0.0]);
        check_solve_transpose(a, &[0.0, 1.0, 0.0, -2.0]);
    }
}
