//! Register-blocked dense kernels behind the tiles: the `A·Bᵀ` dot
//! products of `syrk`/`gemm` (and of the generator's `M·Mᵀ`) and the
//! triangular solve of `trsm`.
//!
//! # Blocking
//!
//! Both kernels keep an `X × V` accumulator block ([`Block`]) in
//! registers and stream a packed panel past it: for each reduction step
//! `p`, one panel row of `V` lanes is multiplied by `X` broadcast
//! scalars. The lanes run across *independent output elements* — output
//! columns for the product (the panel is `Bᵀ`), rows for the solve (the
//! panel is the row block's `Aᵀ`) — never across the reduction.
//!
//! # Bit-identity
//!
//! Every output element sees exactly the IEEE operations of the textbook
//! loop, in the same order: a product sum starts at `0.0` and adds its
//! terms in ascending `p`, and the caller then applies it (`a −= s`); a
//! solve starts from `a(r,c)`, subtracts its terms in ascending `p` and
//! divides by `l(c,c)`. Vector lanes only run such chains side by side.
//! Partial values that outlive a panel chunk are stored and reloaded as
//! `f64`, which is exact; multiplication is commutative in IEEE, so
//! which operand is the broadcast does not matter; no `mul_add` is
//! used and Rust never contracts a multiply and an add into an FMA. The
//! kernels therefore produce the same bits as the naive loops, which the
//! oracle tests in `tiles.rs` pin on both instantiations.
//!
//! # Instantiations
//!
//! Each kernel is one `#[inline(always)]` body instantiated twice: a
//! portable build, and an AVX2 one (`#[target_feature(enable = "avx2")]`,
//! no FMA) picked at run time on x86-64 hosts that have it. Remainders
//! (`b` not a multiple of the block) run the same blocked code on
//! zero-padded lanes and clamped broadcast rows whose results are
//! dropped. Scratch lives on the stack and is bounded by [`KC`] and
//! [`MC`] whatever the tile size; long reductions are cut into chunks.

/// Broadcast rows of a register block.
const X: usize = 4;
/// Vector lanes of a register block.
const V: usize = 8;
/// Reduction depth of one packed panel chunk.
const KC: usize = 64;
/// Output rows whose partial sums one product pass keeps (a multiple of
/// [`X`]).
const MC: usize = 64;

/// An `X × V` accumulator block.
type Block = [[f64; V]; X];

/// `acc[x][v] ±= panel[p][v] · rows[x][p]` for `p` ascending over the
/// panel (`−` when `SUB`).
#[inline(always)]
fn block<const SUB: bool>(acc: &mut Block, panel: &[[f64; V]], rows: [&[f64]; X]) {
    let kc = panel.len();
    let rows = rows.map(|r| &r[..kc]);
    for (p, lanes) in panel.iter().enumerate() {
        for (acc_x, row) in acc.iter_mut().zip(&rows) {
            let s = row[p];
            for (a, &l) in acc_x.iter_mut().zip(lanes) {
                if SUB {
                    *a -= l * s;
                } else {
                    *a += l * s;
                }
            }
        }
    }
}

/// Calls `finish(r, c, s)` with `s = Σ_p a[r,p]·b[c,p]` (summed from
/// `0.0` in ascending `p`) for every `r < m`, `c < n`; only for `c ≤ r`
/// when `lower`. `a` is `m × k` and `b` is `n × k`, both row-major.
#[inline(always)]
fn nt_sums_body<F: FnMut(usize, usize, f64)>(
    a: &[f64],
    b: &[f64],
    (m, n, k): (usize, usize, usize),
    lower: bool,
    mut finish: F,
) {
    assert!(a.len() >= m * k && b.len() >= n * k);
    let mut panel = [[0.0f64; V]; KC];
    for c0 in (0..n).step_by(V) {
        let nc = V.min(n - c0);
        for m0 in (0..m).step_by(MC) {
            let mc = MC.min(m - m0);
            if lower && m0 + mc <= c0 {
                continue;
            }
            let mut sums = [[0.0f64; V]; MC];
            for p0 in (0..k).step_by(KC) {
                let kc = KC.min(k - p0);
                for (p, lanes) in panel[..kc].iter_mut().enumerate() {
                    for (v, lane) in lanes.iter_mut().enumerate() {
                        *lane = if v < nc {
                            b[(c0 + v) * k + p0 + p]
                        } else {
                            0.0
                        };
                    }
                }
                for r0 in (0..mc).step_by(X) {
                    if lower && m0 + r0 + X <= c0 {
                        continue;
                    }
                    let rows = std::array::from_fn(|x| {
                        let r = m0 + (r0 + x).min(mc - 1);
                        &a[r * k + p0..r * k + p0 + kc]
                    });
                    let part = &mut sums[r0..r0 + X];
                    let mut acc: Block = (&*part).try_into().expect("MC is a multiple of X");
                    block::<false>(&mut acc, &panel[..kc], rows);
                    part.copy_from_slice(&acc);
                }
            }
            for (r, row) in (m0..).zip(&sums[..mc]) {
                for (c, &s) in (c0..).zip(&row[..nc]) {
                    if !lower || c <= r {
                        finish(r, c, s);
                    }
                }
            }
        }
    }
}

/// Solves `a ← a · l⁻ᵀ` in place for lower-triangular `l`: row by row,
/// `a(r,c) = (a(r,c) − Σ_{p<c} a(r,p)·l(c,p)) / l(c,c)`, terms in
/// ascending `p`. Both are `n × n`, row-major.
#[inline(always)]
fn trsm_body(a: &mut [f64], l: &[f64], n: usize) {
    assert!(a.len() >= n * n && l.len() >= n * n);
    // columns of the current row block, transposed: panel[p][v] = a(r0+v, p0+p)
    let mut panel = [[0.0f64; V]; KC];
    for r0 in (0..n).step_by(V) {
        let nr = V.min(n - r0);
        // (acc[x][v] = a(r0+v, c0+x), zero outside the tile)
        let load = |a: &[f64], c0: usize, nc: usize| -> Block {
            std::array::from_fn(|x| {
                std::array::from_fn(|v| {
                    if x < nc && v < nr {
                        a[(r0 + v) * n + c0 + x]
                    } else {
                        0.0
                    }
                })
            })
        };
        let store = |a: &mut [f64], c0: usize, nc: usize, acc: &Block| {
            for (x, col) in acc[..nc].iter().enumerate() {
                for (v, &s) in col[..nr].iter().enumerate() {
                    a[(r0 + v) * n + c0 + x] = s;
                }
            }
        };
        // broadcast rows: l(c0+x, from..to), clamped to the last row
        let l_rows = |c0: usize, from: usize, to: usize| -> [&[f64]; X] {
            std::array::from_fn(|x| {
                let c = (c0 + x).min(n - 1);
                &l[c * n + from..c * n + to]
            })
        };
        for j0 in (0..n).step_by(KC) {
            let jc = KC.min(n - j0);
            // terms p < j0: earlier chunks, whose columns are already solved
            for p0 in (0..j0).step_by(KC) {
                for (p, lanes) in panel.iter_mut().enumerate() {
                    for (v, lane) in lanes.iter_mut().enumerate() {
                        *lane = if v < nr {
                            a[(r0 + v) * n + p0 + p]
                        } else {
                            0.0
                        };
                    }
                }
                for c0 in (j0..j0 + jc).step_by(X) {
                    let nc = X.min(j0 + jc - c0);
                    let mut acc = load(a, c0, nc);
                    block::<true>(&mut acc, &panel, l_rows(c0, p0, p0 + KC));
                    store(a, c0, nc, &acc);
                }
            }
            // terms j0 ≤ p < c, then the divide; each solved column joins
            // the panel for the columns after it
            for c0 in (j0..j0 + jc).step_by(X) {
                let nc = X.min(j0 + jc - c0);
                let mut acc = load(a, c0, nc);
                block::<true>(&mut acc, &panel[..c0 - j0], l_rows(c0, j0, c0));
                for x in 0..nc {
                    let c = c0 + x;
                    let (done, rest) = acc.split_at_mut(x);
                    let col = &mut rest[0];
                    for (q, solved) in done.iter().enumerate() {
                        let lq = l[c * n + c0 + q];
                        for (s, &y) in col.iter_mut().zip(solved) {
                            *s -= y * lq;
                        }
                    }
                    let d = l[c * n + c];
                    for s in col.iter_mut() {
                        *s /= d;
                    }
                    panel[c - j0] = *col;
                }
                store(a, c0, nc, &acc);
            }
        }
    }
}

/// The portable instantiation of [`nt_sums`].
pub(crate) fn nt_sums_portable<F: FnMut(usize, usize, f64)>(
    a: &[f64],
    b: &[f64],
    mnk: (usize, usize, usize),
    lower: bool,
    finish: F,
) {
    nt_sums_body(a, b, mnk, lower, finish)
}

/// The AVX2 instantiation of [`nt_sums`].
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn nt_sums_avx2<F: FnMut(usize, usize, f64)>(
    a: &[f64],
    b: &[f64],
    mnk: (usize, usize, usize),
    lower: bool,
    finish: F,
) {
    nt_sums_body(a, b, mnk, lower, finish)
}

/// The portable instantiation of [`trsm`].
pub(crate) fn trsm_portable(a: &mut [f64], l: &[f64], n: usize) {
    trsm_body(a, l, n)
}

/// The AVX2 instantiation of [`trsm`].
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn trsm_avx2(a: &mut [f64], l: &[f64], n: usize) {
    trsm_body(a, l, n)
}

/// Calls `finish(r, c, Σ_p a[r,p]·b[c,p])` for the `m × n` product
/// `a·bᵀ` (`mnk = (m, n, k)`, both operands row-major with `k` columns),
/// restricted to `c ≤ r` when `lower`. Each sum starts at `0.0` and adds
/// its terms in ascending `p`.
pub(crate) fn nt_sums<F: FnMut(usize, usize, f64)>(
    a: &[f64],
    b: &[f64],
    mnk: (usize, usize, usize),
    lower: bool,
    finish: F,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked just above.
        return unsafe { nt_sums_avx2(a, b, mnk, lower, finish) };
    }
    nt_sums_portable(a, b, mnk, lower, finish)
}

/// `a ← a · l⁻ᵀ` for an `n × n` lower-triangular `l`, element by element
/// in the order of the textbook row-by-row substitution.
pub(crate) fn trsm(a: &mut [f64], l: &[f64], n: usize) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked just above.
        return unsafe { trsm_avx2(a, l, n) };
    }
    trsm_portable(a, l, n)
}
