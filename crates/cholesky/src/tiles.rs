//! Tile storage and the four dense kernels.
//!
//! `syrk`/`gemm` and `trsm` run on the register-blocked kernels of
//! `kernels.rs`: a `4 × 8` accumulator block over a packed panel,
//! vectorized across independent output elements and never across a
//! reduction, so every element keeps the textbook loop's operation order
//! and the result is bit-identical to it. `potrf` (a small share of a
//! factorization) stays a scalar loop. The tests keep the textbook loops
//! as oracles and compare bits; correctness tests also factor small
//! matrices and verify `L·Lᵀ = A` directly.

use crate::kernels;
use ptdg_core::data::SharedVec;
use ptdg_simcore::SplitRng;
use std::sync::Arc;

/// The lower-triangular tiles of an SPD matrix, plus a pristine copy used
/// to re-initialize between repeated factorizations.
///
/// Cloning is O(1): both tile lists are shared, so every task body can
/// hold its own handle on the matrix.
#[derive(Clone)]
pub struct TileMatrix {
    /// Tiles per edge.
    pub nt: usize,
    /// Tile edge.
    pub b: usize,
    /// Working tiles, row-major within each `b×b` tile; indexed by
    /// [`TileMatrix::t`] for `i ≥ j`.
    pub tiles: Arc<[SharedVec<f64>]>,
    /// The original matrix content (for resets and verification).
    pub original: Arc<[Vec<f64>]>,
}

impl TileMatrix {
    /// Linear index of tile `(i, j)`, `i ≥ j`.
    pub fn t(&self, i: usize, j: usize) -> usize {
        debug_assert!(i >= j && i < self.nt);
        i * (i + 1) / 2 + j
    }

    /// Generate a random SPD matrix `A = M·Mᵀ + n·I` with a fixed seed.
    pub fn new_spd(nt: usize, b: usize, seed: u64) -> TileMatrix {
        let n = nt * b;
        let m = random_factor(n, seed);
        // A = M Mᵀ + n I (dense lower triangle, then tiled)
        let mut a = vec![0.0f64; n * n];
        kernels::nt_sums(&m, &m, (n, n, n), true, |i, j, s| {
            a[i * n + j] = s + if i == j { n as f64 } else { 0.0 };
        });
        TileMatrix::from_dense(nt, b, &a)
    }

    /// Tiles the lower triangle of the dense row-major `n × n` matrix `a`
    /// (`n = nt·b`).
    fn from_dense(nt: usize, b: usize, a: &[f64]) -> TileMatrix {
        let n = nt * b;
        let mut tiles = Vec::new();
        let mut original = Vec::new();
        for ti in 0..nt {
            for tj in 0..=ti {
                let mut tile = vec![0.0f64; b * b];
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi >= gj {
                            tile[r * b + c] = a[gi * n + gj];
                        }
                    }
                }
                original.push(tile.clone());
                tiles.push(SharedVec::from_vec(tile));
            }
        }
        TileMatrix {
            nt,
            b,
            tiles: tiles.into(),
            original: original.into(),
        }
    }

    /// Reset one tile to its original content.
    pub fn k_reset(&self, idx: usize) {
        let b2 = self.b * self.b;
        let dst = self.tiles[idx].slice_mut(0..b2);
        dst.copy_from_slice(&self.original[idx]);
    }

    /// `potrf`: in-place Cholesky of the diagonal tile `(k, k)`.
    pub fn k_potrf(&self, k: usize) {
        let b = self.b;
        let a = self.tiles[self.t(k, k)].slice_mut(0..b * b);
        for j in 0..b {
            let mut d = a[j * b + j];
            for p in 0..j {
                d -= a[j * b + p] * a[j * b + p];
            }
            assert!(d > 0.0, "matrix is not positive definite at ({k},{j})");
            let d = d.sqrt();
            a[j * b + j] = d;
            for i in (j + 1)..b {
                let mut s = a[i * b + j];
                for p in 0..j {
                    s -= a[i * b + p] * a[j * b + p];
                }
                a[i * b + j] = s / d;
            }
            for i in 0..j {
                a[i * b + j] = 0.0; // zero the upper triangle for clean L
            }
        }
    }

    /// `trsm`: `A(i,k) ← A(i,k) · L(k,k)⁻ᵀ`.
    pub fn k_trsm(&self, i: usize, k: usize) {
        let b = self.b;
        let lkk = self.tiles[self.t(k, k)].slice(0..b * b);
        let aik = self.tiles[self.t(i, k)].slice_mut(0..b * b);
        kernels::trsm(aik, lkk, b);
    }

    /// `syrk`/`gemm`: `A(i,j) ← A(i,j) − A(i,k)·A(j,k)ᵀ`.
    pub fn k_update(&self, i: usize, j: usize, k: usize) {
        let b = self.b;
        let aik = self.tiles[self.t(i, k)].slice(0..b * b);
        let ajk = self.tiles[self.t(j, k)].slice(0..b * b);
        let aij = self.tiles[self.t(i, j)].slice_mut(0..b * b);
        kernels::nt_sums(aik, ajk, (b, b, b), false, |r, c, s| aij[r * b + c] -= s);
    }

    /// Sequential right-looking factorization (reference).
    pub fn factor_sequential(&self) {
        for k in 0..self.nt {
            self.k_potrf(k);
            for i in (k + 1)..self.nt {
                self.k_trsm(i, k);
            }
            for i in (k + 1)..self.nt {
                for j in (k + 1)..=i {
                    self.k_update(i, j, k);
                }
            }
        }
    }

    /// Maximum absolute error of `L·Lᵀ` against the original matrix
    /// (lower triangle).
    pub fn factorization_error(&self) -> f64 {
        let (nt, b) = (self.nt, self.b);
        let n = nt * b;
        // reconstruct dense L
        let mut l = vec![0.0f64; n * n];
        for ti in 0..nt {
            for tj in 0..=ti {
                let tile = self.tiles[self.t(ti, tj)].slice(0..b * b);
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi >= gj {
                            l[gi * n + gj] = tile[r * b + c];
                        }
                    }
                }
            }
        }
        // compare L·Lᵀ with the original
        let mut max_err = 0.0f64;
        for ti in 0..nt {
            for tj in 0..=ti {
                let orig = &self.original[self.t(ti, tj)];
                for r in 0..b {
                    for c in 0..b {
                        let (gi, gj) = (ti * b + r, tj * b + c);
                        if gi < gj {
                            continue;
                        }
                        let mut s = 0.0;
                        for p in 0..=gj {
                            s += l[gi * n + p] * l[gj * n + p];
                        }
                        max_err = max_err.max((s - orig[r * b + c]).abs());
                    }
                }
            }
        }
        max_err
    }

    /// FNV digest of all tiles.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let b2 = self.b * self.b;
        for t in self.tiles.iter() {
            for &v in t.slice(0..b2) {
                h ^= v.to_bits();
                h = h.wrapping_mul(0x100000001b3);
            }
        }
        h
    }
}

/// The seeded `n × n` factor `M` of [`TileMatrix::new_spd`], uniform in
/// `[-1, 1)`, row-major.
fn random_factor(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitRng::new(seed);
    (0..n * n).map(|_| 2.0 * rng.next_f64() - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn sequential_factorization_is_correct() {
        let m = TileMatrix::new_spd(4, 6, 42);
        m.factor_sequential();
        let err = m.factorization_error();
        assert!(err < 1e-9, "L·Lᵀ must equal A: max err {err}");
    }

    #[test]
    fn reset_restores_original() {
        let m = TileMatrix::new_spd(3, 4, 7);
        let before = m.digest();
        m.factor_sequential();
        assert_ne!(m.digest(), before);
        for idx in 0..m.tiles.len() {
            m.k_reset(idx);
        }
        assert_eq!(m.digest(), before);
    }

    #[test]
    fn repeated_factorizations_are_identical() {
        let m = TileMatrix::new_spd(3, 5, 9);
        m.factor_sequential();
        let d1 = m.digest();
        for idx in 0..m.tiles.len() {
            m.k_reset(idx);
        }
        m.factor_sequential();
        assert_eq!(m.digest(), d1);
    }

    #[test]
    fn clone_shares_tiles_and_original() {
        let m = TileMatrix::new_spd(3, 4, 5);
        let c = m.clone();
        assert!(Arc::ptr_eq(&m.tiles, &c.tiles));
        assert!(Arc::ptr_eq(&m.original, &c.original));
        c.factor_sequential();
        assert_eq!(m.digest(), c.digest(), "a clone writes the same tiles");
    }

    #[test]
    fn generator_is_seeded() {
        let a = TileMatrix::new_spd(2, 4, 1).digest();
        let b = TileMatrix::new_spd(2, 4, 1).digest();
        let c = TileMatrix::new_spd(2, 4, 2).digest();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tile_indexing() {
        let m = TileMatrix::new_spd(4, 2, 0);
        assert_eq!(m.t(0, 0), 0);
        assert_eq!(m.t(1, 0), 1);
        assert_eq!(m.t(1, 1), 2);
        assert_eq!(m.t(3, 3), 9);
    }

    /// The textbook loops the kernels replaced: the bit-exact references.
    mod oracle {
        use super::super::{random_factor, TileMatrix};

        pub fn new_spd(nt: usize, b: usize, seed: u64) -> TileMatrix {
            let n = nt * b;
            let m = random_factor(n, seed);
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let mut s = 0.0;
                    for k in 0..n {
                        s += m[i * n + k] * m[j * n + k];
                    }
                    a[i * n + j] = s + if i == j { n as f64 } else { 0.0 };
                }
            }
            TileMatrix::from_dense(nt, b, &a)
        }

        pub fn potrf(a: &mut [f64], b: usize) {
            for j in 0..b {
                let mut d = a[j * b + j];
                for p in 0..j {
                    d -= a[j * b + p] * a[j * b + p];
                }
                let d = d.sqrt();
                a[j * b + j] = d;
                for i in (j + 1)..b {
                    let mut s = a[i * b + j];
                    for p in 0..j {
                        s -= a[i * b + p] * a[j * b + p];
                    }
                    a[i * b + j] = s / d;
                }
                for i in 0..j {
                    a[i * b + j] = 0.0;
                }
            }
        }

        pub fn trsm(aik: &mut [f64], lkk: &[f64], b: usize) {
            for r in 0..b {
                for c in 0..b {
                    let mut s = aik[r * b + c];
                    for p in 0..c {
                        s -= aik[r * b + p] * lkk[c * b + p];
                    }
                    aik[r * b + c] = s / lkk[c * b + c];
                }
            }
        }

        pub fn update(aij: &mut [f64], aik: &[f64], ajk: &[f64], b: usize) {
            for r in 0..b {
                for c in 0..b {
                    let mut s = 0.0;
                    for p in 0..b {
                        s += aik[r * b + p] * ajk[c * b + p];
                    }
                    aij[r * b + c] -= s;
                }
            }
        }
    }

    /// One instantiation of the `trsm` and update kernels.
    struct Kernels {
        name: &'static str,
        trsm: fn(&mut [f64], &[f64], usize),
        update: fn(&mut [f64], &[f64], &[f64], usize),
    }

    /// The portable instantiation and, on hosts with AVX2, the AVX2 one,
    /// each called directly.
    fn instantiations() -> Vec<Kernels> {
        let portable = Kernels {
            name: "portable",
            trsm: kernels::trsm_portable,
            update: |aij, aik, ajk, b| {
                kernels::nt_sums_portable(aik, ajk, (b, b, b), false, |r, c, s| aij[r * b + c] -= s)
            },
        };
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let avx2 = Kernels {
                name: "avx2",
                // SAFETY: the host supports AVX2, checked just above.
                trsm: |a, l, n| unsafe { kernels::trsm_avx2(a, l, n) },
                update: |aij, aik, ajk, b| {
                    // SAFETY: only built when the host supports AVX2.
                    unsafe {
                        kernels::nt_sums_avx2(aik, ajk, (b, b, b), false, |r, c, s| {
                            aij[r * b + c] -= s
                        })
                    }
                },
            };
            return vec![portable, avx2];
        }
        vec![portable]
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn tile_bits(m: &TileMatrix) -> Vec<Vec<u64>> {
        let b2 = m.b * m.b;
        m.tiles.iter().map(|t| bits(t.slice(0..b2))).collect()
    }

    /// Sequential right-looking factorization of plain tiles with the
    /// oracle `potrf` and the given `trsm` and update.
    fn factor_with(tiles: &mut [Vec<f64>], nt: usize, b: usize, k: &Kernels) {
        let t = |i: usize, j: usize| i * (i + 1) / 2 + j;
        for kk in 0..nt {
            oracle::potrf(&mut tiles[t(kk, kk)], b);
            for i in (kk + 1)..nt {
                let lkk = tiles[t(kk, kk)].clone();
                (k.trsm)(&mut tiles[t(i, kk)], &lkk, b);
            }
            for i in (kk + 1)..nt {
                for j in (kk + 1)..=i {
                    let (aik, ajk) = (tiles[t(i, kk)].clone(), tiles[t(j, kk)].clone());
                    (k.update)(&mut tiles[t(i, j)], &aik, &ajk, b);
                }
            }
        }
    }

    /// Tile edges the oracle test covers: every small edge, including
    /// the ones below and between register blocks, plus one with panel
    /// chunks and one with chunk and block remainders.
    const EDGES: [usize; 22] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 64, 67,
    ];

    /// Compares every blocked output against the oracle, bit for bit:
    /// the generator, `trsm`, the update (`gemm` and the `syrk` case
    /// where both inputs are one tile), and a whole factorization.
    fn check_bit_identity(b: usize, seed: u64) -> Result<(), String> {
        let nt = 3;
        let reference = oracle::new_spd(nt, b, seed);
        let blocked = TileMatrix::new_spd(nt, b, seed);
        if tile_bits(&blocked) != tile_bits(&reference) {
            return Err(format!("new_spd differs at b={b} seed={seed}"));
        }
        let start = reference.original.to_vec();
        let mut l00 = start[0].clone();
        oracle::potrf(&mut l00, b);
        let same = |what: &str, got: &[f64], want: &[f64]| {
            if bits(got) == bits(want) {
                Ok(())
            } else {
                Err(format!("{what} differs at b={b} seed={seed}"))
            }
        };
        let run = |k: &Kernels| {
            let mut a10 = start[1].clone();
            (k.trsm)(&mut a10, &l00, b);
            let mut a20 = start[3].clone();
            (k.trsm)(&mut a20, &l00, b);
            let mut gemm = start[4].clone();
            (k.update)(&mut gemm, &a20, &a10, b);
            let mut syrk = start[2].clone();
            (k.update)(&mut syrk, &a10, &a10, b);
            let mut tiles = start.clone();
            factor_with(&mut tiles, nt, b, k);
            (a10, gemm, syrk, tiles.concat())
        };
        let want = run(&Kernels {
            name: "oracle",
            trsm: oracle::trsm,
            update: oracle::update,
        });
        for k in instantiations() {
            let got = run(&k);
            same(&format!("trsm ({})", k.name), &got.0, &want.0)?;
            same(&format!("gemm ({})", k.name), &got.1, &want.1)?;
            same(&format!("syrk ({})", k.name), &got.2, &want.2)?;
            same(&format!("factorization ({})", k.name), &got.3, &want.3)?;
        }
        blocked.factor_sequential();
        let lib: Vec<f64> = blocked
            .tiles
            .iter()
            .flat_map(|t| t.slice(0..b * b).to_vec())
            .collect();
        same("factor_sequential", &lib, &want.3)
    }

    #[test]
    fn blocked_kernels_are_bit_identical_at_every_edge() {
        for b in EDGES {
            check_bit_identity(b, 1000 + b as u64).unwrap();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Seeded matrices at random edges: the blocked kernels and the
        /// oracle agree bit for bit.
        #[test]
        fn blocked_kernels_match_the_oracle_bitwise(
            pick in 0usize..EDGES.len(),
            seed in 0u64..1_000_000,
        ) {
            check_bit_identity(EDGES[pick], seed).map_err(TestCaseError::fail)?;
        }
    }
}
