//! The paper's feature pipeline (§III-D): shifted 2-D FFT → central crop →
//! complex feature vector.
//!
//! "To convert the 28×28 = 784 dimensional real-valued images … to
//! complex-valued vectors, we consider the shifted fast Fourier transform of
//! each image … To compress the feature vector, we consider the values
//! within \[a\] 4×4 region at the center of the frequency spectrum."
//!
//! The low-frequency center of the shifted spectrum carries most of the
//! image energy, which is why a 4×4 crop (16 complex values) retains enough
//! information — the paper reports only a 6.77-point accuracy drop versus
//! the full 784-dimensional spectrum.

use crate::generator::GrayImage;
use spnn_linalg::fft::{Direction, FftPlan};
use spnn_linalg::C64;

/// Computes the complex feature vector of an image: 2-D FFT, `fftshift`,
/// central `crop × crop` block, flattened row-major and normalized to unit
/// L2 norm (constant optical input power).
///
/// # Panics
///
/// Panics if `crop` is zero or exceeds the image side.
///
/// # Example
///
/// ```
/// use spnn_dataset::{fft_features, GrayImage};
///
/// let mut img = GrayImage::black(28);
/// img.set(14, 14, 1.0);
/// let f = fft_features(&img, 4);
/// assert_eq!(f.len(), 16);
/// ```
pub fn fft_features(image: &GrayImage, crop: usize) -> Vec<C64> {
    fft_features_with(&FftPlan::new(image.side(), Direction::Forward), image, crop)
}

/// [`fft_features`] through a caller-owned forward plan of length
/// `image.side()`, so a whole dataset shares one plan.
///
/// All rows are transformed, but only the `crop` columns the shifted crop
/// keeps are: a column transform reads nothing outside its own column, so
/// the kept coefficients are bit-identical to cropping the full
/// `fftshift(fft2(image))` spectrum.
///
/// # Panics
///
/// Panics if `crop` is zero or exceeds the image side, or if `plan` is not
/// a forward plan of the image side.
pub fn fft_features_with(plan: &FftPlan, image: &GrayImage, crop: usize) -> Vec<C64> {
    let side = image.side();
    assert!(crop > 0 && crop <= side, "crop must be in 1..=side");
    assert_eq!(
        plan.direction(),
        Direction::Forward,
        "features need a forward plan"
    );

    let mut scratch = Vec::new();
    let mut rows: Vec<C64> = image.pixels().iter().map(|&p| C64::from(p)).collect();
    for row in rows.chunks_exact_mut(side) {
        plan.process(row, &mut scratch);
    }

    // Shifted index `start + i` holds unshifted frequency
    // `(start + i + side - side / 2) % side` (the `fftshift` rotation).
    let start = side / 2 - crop / 2;
    let unshift = |i: usize| (start + i + side - side / 2) % side;
    let mut features = vec![C64::zero(); crop * crop];
    let mut col = vec![C64::zero(); side];
    for j in 0..crop {
        let c = unshift(j);
        for (r, z) in col.iter_mut().enumerate() {
            *z = rows[r * side + c];
        }
        plan.process(&mut col, &mut scratch);
        for i in 0..crop {
            features[i * crop + j] = col[unshift(i)];
        }
    }

    let norm = spnn_linalg::vector::norm(&features);
    if norm > f64::MIN_POSITIVE {
        for f in &mut features {
            *f = *f / norm;
        }
    }
    features
}

/// The full flattened shifted spectrum (784 complex features for a 28×28
/// image) — the paper's uncompressed baseline encoding.
pub fn full_spectrum_features(image: &GrayImage) -> Vec<C64> {
    fft_features(image, image.side())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::ImageGenerator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnn_linalg::fft::{dft_naive, fftshift};
    use spnn_linalg::vector::norm_sq;
    use spnn_linalg::CMatrix;

    #[test]
    fn feature_count_is_crop_squared() {
        let img = GrayImage::black(28);
        for crop in [1usize, 2, 4, 8, 28] {
            // All-black image gives zero vector (norm guard path).
            assert_eq!(fft_features(&img, crop).len(), crop * crop);
        }
    }

    #[test]
    fn unit_norm_for_nonzero_images() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(20);
        let img = gen.render(4, &mut rng);
        let f = fft_features(&img, 4);
        assert!((norm_sq(&f) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn zero_image_gives_zero_features() {
        let img = GrayImage::black(28);
        let f = fft_features(&img, 4);
        assert!(f.iter().all(|z| z.abs() == 0.0));
    }

    #[test]
    fn dc_component_lands_in_crop_center() {
        // A constant image has all spectral energy at DC, which fftshift
        // moves to (14, 14); the 4×4 crop starting at 12 covers it at (2,2).
        let mut img = GrayImage::black(28);
        for r in 0..28 {
            for c in 0..28 {
                img.set(r, c, 0.5);
            }
        }
        let f = fft_features(&img, 4);
        // Feature index (2,2) → 2*4+2 = 10 holds everything.
        for (i, z) in f.iter().enumerate() {
            if i == 10 {
                assert!((z.abs() - 1.0).abs() < 1e-10, "DC magnitude {}", z.abs());
            } else {
                assert!(z.abs() < 1e-10, "leak at {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft_pipeline() {
        // Cross-check the whole pipeline against an O(n⁴) direct DFT.
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(21);
        let img = gen.render(2, &mut rng);
        let n = img.side();

        // Naive 2-D DFT.
        let mut rows_t = Vec::with_capacity(n);
        for r in 0..n {
            let row: Vec<C64> = (0..n).map(|c| C64::from(img.get(r, c))).collect();
            rows_t.push(dft_naive(&row, Direction::Forward));
        }
        let mut full = CMatrix::zeros(n, n);
        for c in 0..n {
            let col: Vec<C64> = (0..n).map(|r| rows_t[r][c]).collect();
            let t = dft_naive(&col, Direction::Forward);
            for (r, z) in t.into_iter().enumerate() {
                full[(r, c)] = z;
            }
        }
        let shifted = fftshift(&full);
        let start = n / 2 - 2;
        let mut expect = shifted.block(start, start, 4, 4).into_vec();
        let norm = spnn_linalg::vector::norm(&expect);
        for e in &mut expect {
            *e = *e / norm;
        }

        let got = fft_features(&img, 4);
        for (a, b) in got.iter().zip(expect.iter()) {
            assert!(a.approx_eq(*b, 1e-8), "{a} vs {b}");
        }
    }

    #[test]
    fn full_spectrum_has_784_features() {
        let gen = ImageGenerator::default();
        let mut rng = StdRng::seed_from_u64(22);
        let img = gen.render(9, &mut rng);
        assert_eq!(full_spectrum_features(&img).len(), 784);
    }

    #[test]
    fn translation_changes_phase_not_center_magnitude_much() {
        // Fourier shift theorem: translating the digit mostly rotates the
        // phases of low-frequency coefficients; magnitudes move less. This
        // is why complex features (not just magnitudes) matter.
        let gen = ImageGenerator {
            noise_sigma: 0.0,
            max_shift: 0.0,
            max_rotation: 0.0,
            max_shear: 0.0,
            scale_range: (1.0, 1.0),
            dilate_prob: 0.0,
            ..ImageGenerator::default()
        };
        let mut rng = StdRng::seed_from_u64(23);
        let img = gen.render(3, &mut rng);
        // Manual 2-px translation.
        let mut shifted_img = GrayImage::black(28);
        for r in 0..26 {
            for c in 0..26 {
                shifted_img.set(r + 2, c + 2, img.get(r, c));
            }
        }
        let a = fft_features(&img, 4);
        let b = fft_features(&shifted_img, 4);
        // Magnitude spectra are close…
        let mag_dist: f64 = a
            .iter()
            .zip(b.iter())
            .map(|(x, y)| (x.abs() - y.abs()).abs())
            .sum();
        // …while the complex vectors differ appreciably (phases rotated).
        let vec_dist: f64 = a.iter().zip(b.iter()).map(|(x, y)| (*x - *y).abs()).sum();
        assert!(
            mag_dist < 0.5 * vec_dist,
            "mag {mag_dist} vs vec {vec_dist}"
        );
    }

    #[test]
    #[should_panic(expected = "crop")]
    fn oversized_crop_panics() {
        let img = GrayImage::black(8);
        let _ = fft_features(&img, 9);
    }
}
