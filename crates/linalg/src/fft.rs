//! Fast Fourier transforms: radix-2 Cooley–Tukey, Bluestein for arbitrary
//! lengths, 2-D transforms and `fftshift`.
//!
//! The paper converts each 28×28 MNIST image to a complex feature vector via
//! the *shifted* 2-D FFT and keeps the central 4×4 of the spectrum. 28 is not
//! a power of two, so an arbitrary-length transform (Bluestein's chirp-z
//! algorithm) is required on top of the radix-2 kernel.

use crate::c64::C64;
use crate::matrix::CMatrix;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT: `X_k = Σ x_n e^{−2πi·kn/N}`.
    Forward,
    /// Inverse DFT (including the `1/N` normalization).
    Inverse,
}

/// In-place radix-2 Cooley–Tukey FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two. Use [`fft`] for arbitrary
/// lengths.
pub fn fft_pow2_inplace(data: &mut [C64], dir: Direction) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "fft_pow2_inplace requires power-of-two length"
    );
    radix2(data, dir, &twiddles(n, dir));
}

/// The twiddle factors of every radix-2 stage of a length-`n` transform,
/// in butterfly order: stage `len` (2, 4, …, n) occupies
/// `[len/2 − 1, len − 1)` and holds `w_0 = 1`, `w_i = w_{i−1}·e^{sign·2πi/len}`.
fn twiddles(n: usize, dir: Direction) -> Vec<C64> {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut tw = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let wlen = C64::cis(sign * std::f64::consts::TAU / len as f64);
        let mut w = C64::one();
        for _ in 0..len / 2 {
            tw.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    tw
}

/// The radix-2 transform of a power-of-two-length (or empty) `data` with
/// precomputed [`twiddles`].
fn radix2(data: &mut [C64], dir: Direction, twiddles: &[C64]) {
    let n = data.len();
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }

    let mut len = 2;
    while len <= n {
        let half = len / 2;
        let tw = &twiddles[half - 1..len - 1];
        for chunk in data.chunks_mut(len) {
            let (lo, hi) = chunk.split_at_mut(half);
            for ((u, v), w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                let a = *u;
                let b = *v * *w;
                *u = a + b;
                *v = a - b;
            }
        }
        len <<= 1;
    }

    if dir == Direction::Inverse {
        let inv = 1.0 / n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv);
        }
    }
}

/// FFT of arbitrary length: radix-2 when possible, Bluestein otherwise.
///
/// Returns a new vector; the input is unchanged. Equivalent to a one-shot
/// [`FftPlan`]; build the plan once instead when transforming many
/// signals of one length.
///
/// # Example
///
/// ```
/// use spnn_linalg::{C64, fft::{fft, Direction}};
/// let x: Vec<C64> = (0..6).map(|i| C64::new(i as f64, 0.0)).collect();
/// let spectrum = fft(&x, Direction::Forward);
/// let back = fft(&spectrum, Direction::Inverse);
/// for (a, b) in x.iter().zip(back.iter()) {
///     assert!(a.approx_eq(*b, 1e-10));
/// }
/// ```
pub fn fft(input: &[C64], dir: Direction) -> Vec<C64> {
    let mut out = input.to_vec();
    FftPlan::new(input.len(), dir).process(&mut out, &mut Vec::new());
    out
}

/// A reusable transform of one length and direction.
///
/// Power-of-two lengths run radix-2 in place; other lengths use
/// Bluestein's chirp-z algorithm, which expresses the DFT as a convolution
/// evaluated with power-of-two FFTs. Everything that depends only on the
/// length and direction — the radix-2 twiddles, the chirp, the spectrum
/// of the convolution kernel — is computed once here instead of on every
/// call. Results are bit-identical to [`fft`], which is a one-shot plan.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    dir: Direction,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Power-of-two (or zero) length: the stage [`twiddles`].
    Radix2(Vec<C64>),
    Bluestein(Bluestein),
}

/// The length-dependent half of Bluestein's algorithm.
#[derive(Debug, Clone)]
struct Bluestein {
    /// Chirp `w_k = e^{sign·πi·k²/n}`.
    chirp: Vec<C64>,
    /// Forward FFT of the conjugate chirp, zero-padded and wrapped to the
    /// power-of-two convolution length `m`.
    kernel_hat: Vec<C64>,
    /// Forward and inverse [`twiddles`] of length `m`.
    forward: Vec<C64>,
    inverse: Vec<C64>,
}

impl FftPlan {
    /// Plans a length-`n` transform in direction `dir`.
    pub fn new(n: usize, dir: Direction) -> Self {
        let kind = if n == 0 || n.is_power_of_two() {
            PlanKind::Radix2(twiddles(n, dir))
        } else {
            PlanKind::Bluestein(Bluestein::new(n, dir))
        };
        Self { n, dir, kind }
    }

    /// The direction this plan transforms in.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Transforms `data` in place. `scratch` is Bluestein's work buffer,
    /// reusable across calls (its contents on entry do not matter).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the planned length.
    pub fn process(&self, data: &mut [C64], scratch: &mut Vec<C64>) {
        assert_eq!(data.len(), self.n, "signal length differs from the plan");
        match &self.kind {
            PlanKind::Radix2(tw) => radix2(data, self.dir, tw),
            PlanKind::Bluestein(b) => b.process(data, self.dir, scratch),
        }
    }
}

impl Bluestein {
    fn new(n: usize, dir: Direction) -> Self {
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        };
        // Use k² mod 2n to avoid huge angles.
        let chirp: Vec<C64> = (0..n)
            .map(|k| {
                let k2 = (k as u64 * k as u64) % (2 * n as u64);
                C64::cis(sign * std::f64::consts::PI * k2 as f64 / n as f64)
            })
            .collect();
        let m = (2 * n - 1).next_power_of_two();
        let forward = twiddles(m, Direction::Forward);
        let mut kernel_hat = vec![C64::zero(); m];
        kernel_hat[0] = chirp[0].conj();
        for k in 1..n {
            let c = chirp[k].conj();
            kernel_hat[k] = c;
            kernel_hat[m - k] = c;
        }
        radix2(&mut kernel_hat, Direction::Forward, &forward);
        Self {
            chirp,
            kernel_hat,
            forward,
            inverse: twiddles(m, Direction::Inverse),
        }
    }

    fn process(&self, data: &mut [C64], dir: Direction, a: &mut Vec<C64>) {
        a.clear();
        a.extend(data.iter().zip(&self.chirp).map(|(x, w)| *x * *w));
        a.resize(self.kernel_hat.len(), C64::zero());
        radix2(a, Direction::Forward, &self.forward);
        for (x, y) in a.iter_mut().zip(&self.kernel_hat) {
            *x *= *y;
        }
        radix2(a, Direction::Inverse, &self.inverse);
        for ((out, z), w) in data.iter_mut().zip(a.iter()).zip(&self.chirp) {
            *out = *z * *w;
        }
        if dir == Direction::Inverse {
            let inv = 1.0 / data.len() as f64;
            for z in data.iter_mut() {
                *z = z.scale(inv);
            }
        }
    }
}

/// Reference `O(n²)` DFT — used to pin the fast transforms in tests.
pub fn dft_naive(input: &[C64], dir: Direction) -> Vec<C64> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![C64::zero(); n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = C64::zero();
        for (j, &x) in input.iter().enumerate() {
            let ang = sign * std::f64::consts::TAU * (k as f64) * (j as f64) / n as f64;
            acc += x * C64::cis(ang);
        }
        *o = if dir == Direction::Inverse {
            acc.scale(1.0 / n as f64)
        } else {
            acc
        };
    }
    out
}

/// 2-D FFT of a complex matrix (rows first, then columns).
pub fn fft2(input: &CMatrix, dir: Direction) -> CMatrix {
    let (rows, cols) = input.shape();
    let mut out = input.clone();
    let mut scratch = Vec::new();
    // Transform rows.
    let row_plan = FftPlan::new(cols, dir);
    for r in 0..rows {
        let mut row = out.row(r).to_vec();
        row_plan.process(&mut row, &mut scratch);
        for (c, z) in row.into_iter().enumerate() {
            out[(r, c)] = z;
        }
    }
    // Transform columns.
    let col_plan = FftPlan::new(rows, dir);
    for c in 0..cols {
        let mut col = out.col(c);
        col_plan.process(&mut col, &mut scratch);
        for (r, z) in col.into_iter().enumerate() {
            out[(r, c)] = z;
        }
    }
    out
}

/// Swaps quadrants so the zero-frequency component moves to the center —
/// `fftshift`, matching the "shifted fast Fourier transform" of the paper.
///
/// For odd dimensions the extra element goes to the leading half, matching
/// NumPy's convention (`shift = n / 2` rounded down applied as a rotation).
pub fn fftshift(input: &CMatrix) -> CMatrix {
    let (rows, cols) = input.shape();
    let (sr, sc) = (rows / 2, cols / 2);
    CMatrix::from_fn(rows, cols, |r, c| {
        input[((r + rows - sr) % rows, (c + cols - sc) % cols)]
    })
}

/// Inverse of [`fftshift`].
pub fn ifftshift(input: &CMatrix) -> CMatrix {
    let (rows, cols) = input.shape();
    let (sr, sc) = (rows - rows / 2, cols - cols / 2);
    CMatrix::from_fn(rows, cols, |r, c| {
        input[((r + rows - sr) % rows, (c + cols - sc) % cols)]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::gaussian_complex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| gaussian_complex(&mut rng)).collect()
    }

    fn assert_close(a: &[C64], b: &[C64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!(x.approx_eq(*y, tol), "{x} != {y}");
        }
    }

    #[test]
    fn fft_pow2_matches_naive() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = random_signal(n, n as u64);
            let fast = fft(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert_close(&fast, &slow, 1e-9 * (n as f64));
        }
    }

    #[test]
    fn bluestein_matches_naive() {
        for n in [3usize, 5, 6, 7, 12, 28, 100] {
            let x = random_signal(n, 1000 + n as u64);
            let fast = fft(&x, Direction::Forward);
            let slow = dft_naive(&x, Direction::Forward);
            assert_close(&fast, &slow, 1e-8 * (n as f64));
        }
    }

    #[test]
    fn reused_plan_is_bit_identical_to_fresh_fft() {
        let bits = |v: &[C64]| -> Vec<(u64, u64)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        // One scratch buffer across every length: stale contents from a
        // longer transform must not leak into a shorter one.
        let mut scratch = Vec::new();
        for dir in [Direction::Forward, Direction::Inverse] {
            for n in [0usize, 1, 2, 3, 7, 8, 9, 16, 28, 100] {
                let plan = FftPlan::new(n, dir);
                for seed in 0..4 {
                    let x = random_signal(n, 3000 + 10 * n as u64 + seed);
                    let mut y = x.clone();
                    plan.process(&mut y, &mut scratch);
                    assert_eq!(bits(&y), bits(&fft(&x, dir)), "n={n} {dir:?}");
                    if n.is_power_of_two() {
                        let mut z = x.clone();
                        fft_pow2_inplace(&mut z, dir);
                        assert_eq!(bits(&y), bits(&z), "n={n} {dir:?} radix-2");
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for n in [4usize, 7, 28, 32] {
            let x = random_signal(n, 2000 + n as u64);
            let back = fft(&fft(&x, Direction::Forward), Direction::Inverse);
            assert_close(&x, &back, 1e-9 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![C64::zero(); 8];
        x[0] = C64::one();
        let y = fft(&x, Direction::Forward);
        for z in y {
            assert!(z.approx_eq(C64::one(), 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_is_impulse() {
        let x = vec![C64::one(); 16];
        let y = fft(&x, Direction::Forward);
        assert!(y[0].approx_eq(C64::from(16.0), 1e-10));
        for z in &y[1..] {
            assert!(z.abs() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 28;
        let x = random_signal(n, 77);
        let y = fft(&x, Direction::Forward);
        let ex: f64 = x.iter().map(|z| z.abs_sq()).sum();
        let ey: f64 = y.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() < 1e-9 * ex.max(1.0));
    }

    #[test]
    fn fft2_matches_naive_28() {
        let mut rng = StdRng::seed_from_u64(5);
        let img = CMatrix::from_fn(28, 28, |_, _| gaussian_complex(&mut rng));
        let fast = fft2(&img, Direction::Forward);
        // Naive 2-D: DFT each row, then each column.
        let mut slow = img.clone();
        for r in 0..28 {
            let t = dft_naive(slow.row(r), Direction::Forward);
            for (c, z) in t.into_iter().enumerate() {
                slow[(r, c)] = z;
            }
        }
        for c in 0..28 {
            let t = dft_naive(&slow.col(c), Direction::Forward);
            for (r, z) in t.into_iter().enumerate() {
                slow[(r, c)] = z;
            }
        }
        assert!(fast.approx_eq(&slow, 1e-6), "2-D FFT mismatch");
    }

    #[test]
    fn fft2_roundtrip() {
        let mut rng = StdRng::seed_from_u64(6);
        let img = CMatrix::from_fn(12, 28, |_, _| gaussian_complex(&mut rng));
        let back = fft2(&fft2(&img, Direction::Forward), Direction::Inverse);
        assert!(back.approx_eq(&img, 1e-9));
    }

    #[test]
    fn fftshift_moves_dc_to_center() {
        // DC (0,0) should land at (rows/2, cols/2).
        let mut m = CMatrix::zeros(4, 6);
        m[(0, 0)] = C64::one();
        let s = fftshift(&m);
        assert!(s[(2, 3)].approx_eq(C64::one(), 0.0));
        assert!(s[(0, 0)].approx_eq(C64::zero(), 0.0));
    }

    #[test]
    fn fftshift_roundtrip_even_and_odd() {
        for (r, c) in [(4, 4), (5, 5), (4, 7), (28, 28)] {
            let mut rng = StdRng::seed_from_u64((r * 100 + c) as u64);
            let m = CMatrix::from_fn(r, c, |_, _| gaussian_complex(&mut rng));
            assert!(ifftshift(&fftshift(&m)).approx_eq(&m, 0.0), "{r}x{c}");
        }
    }

    #[test]
    fn empty_fft_is_empty() {
        assert!(fft(&[], Direction::Forward).is_empty());
    }

    #[test]
    fn fft_linearity() {
        let n = 28;
        let x = random_signal(n, 8);
        let y = random_signal(n, 9);
        let sum: Vec<C64> = x.iter().zip(y.iter()).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x, Direction::Forward);
        let fy = fft(&y, Direction::Forward);
        let fsum = fft(&sum, Direction::Forward);
        for i in 0..n {
            assert!(fsum[i].approx_eq(fx[i] + fy[i], 1e-8));
        }
    }
}
