//! Property tests of the cropped feature path: [`fft_features`] transforms
//! only the spectrum columns the central crop keeps, and must stay
//! bit-identical to cropping the full `fft2 → fftshift → block → normalize`
//! chain — for random and rendered images, power-of-two, odd and
//! Bluestein sides, and every crop.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spnn_dataset::{fft_features, fft_features_with, GrayImage, ImageGenerator};
use spnn_linalg::fft::{fft2, fftshift, Direction, FftPlan};
use spnn_linalg::{CMatrix, C64};

/// Sides covering radix-2 (8, 16), odd (7, 9) and the paper's
/// Bluestein length (28).
const SIDES: [usize; 5] = [7, 8, 9, 16, 28];

/// The full shifted spectrum of `image`, computed once per image.
fn full_spectrum(image: &GrayImage) -> CMatrix {
    let side = image.side();
    let m = CMatrix::from_fn(side, side, |r, c| C64::from(image.get(r, c)));
    fftshift(&fft2(&m, Direction::Forward))
}

/// The uncropped reference: central block of the shifted spectrum,
/// flattened row-major and normalized to unit power.
fn reference(spectrum: &CMatrix, crop: usize) -> Vec<C64> {
    let side = spectrum.shape().0;
    let start = side / 2 - crop / 2;
    let mut f = spectrum.block(start, start, crop, crop).into_vec();
    let norm = spnn_linalg::vector::norm(&f);
    if norm > f64::MIN_POSITIVE {
        for z in &mut f {
            *z = *z / norm;
        }
    }
    f
}

fn bits(v: &[C64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// Checks every crop of `image` through both entry points.
fn assert_every_crop_matches(image: &GrayImage) {
    let side = image.side();
    let spectrum = full_spectrum(image);
    let plan = FftPlan::new(side, Direction::Forward);
    for crop in 1..=side {
        let want = bits(&reference(&spectrum, crop));
        assert_eq!(
            bits(&fft_features(image, crop)),
            want,
            "side {side} crop {crop}"
        );
        assert_eq!(
            bits(&fft_features_with(&plan, image, crop)),
            want,
            "side {side} crop {crop} (shared plan)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cropped_path_matches_the_full_chain_on_random_images(
        side_index in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let side = SIDES[side_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut image = GrayImage::black(side);
        for r in 0..side {
            for c in 0..side {
                image.set(r, c, rng.gen::<f64>());
            }
        }
        assert_every_crop_matches(&image);
    }

    #[test]
    fn cropped_path_matches_the_full_chain_on_rendered_digits(
        digit in 0usize..10,
        seed in 0u64..1_000_000,
    ) {
        let image = ImageGenerator::default().render(digit, &mut StdRng::seed_from_u64(seed));
        assert_every_crop_matches(&image);
    }
}

#[test]
fn blank_images_match_on_every_side() {
    for side in SIDES {
        assert_every_crop_matches(&GrayImage::black(side));
    }
}
