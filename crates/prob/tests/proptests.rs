//! Property-based tests for the probability substrate.

use proptest::prelude::*;
use rush_prob::dist::{Continuous, Exponential, Gaussian, LogNormal};
use rush_prob::stats::{percentile, Ecdf, FiveNumber};
use rush_prob::Pmf;

fn weights_strategy() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0f64..100.0, 1..64).prop_filter("non-zero mass", |ws| {
        ws.iter().sum::<f64>() > 1e-6
    })
}

proptest! {
    #[test]
    fn pmf_always_normalized(ws in weights_strategy()) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        prop_assert!(p.is_normalized());
    }

    #[test]
    fn pmf_cdf_monotone(ws in weights_strategy()) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        let mut prev = 0.0;
        for l in 0..p.bins() {
            let c = p.cdf(l);
            prop_assert!(c + 1e-12 >= prev);
            prev = c;
        }
        prop_assert!((p.cdf(p.bins() - 1) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pmf_quantile_inverts_cdf(ws in weights_strategy(), theta in 0.01f64..0.99) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        let l = p.quantile_bin(theta);
        // CDF at quantile covers theta...
        prop_assert!(p.cdf(l) + 1e-9 >= theta);
        // ...and is the smallest such bin.
        if l > 0 {
            prop_assert!(p.cdf(l - 1) < theta + 1e-9);
        }
    }

    #[test]
    fn kl_divergence_nonnegative(
        ws1 in weights_strategy(),
        ws2 in weights_strategy(),
    ) {
        let n = ws1.len().min(ws2.len());
        let p = Pmf::from_weights(ws1[..n].to_vec(), 1);
        let q = Pmf::from_weights(ws2[..n].to_vec(), 1);
        if let (Ok(p), Ok(q)) = (p, q) {
            let q = q.with_support_floor(1e-12).unwrap();
            let d = p.kl_divergence(&q).unwrap();
            prop_assert!(d >= 0.0);
        }
    }

    #[test]
    fn kl_self_divergence_zero(ws in weights_strategy()) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        prop_assert!(p.kl_divergence(&p).unwrap().abs() < 1e-12);
    }

    #[test]
    fn rebin_preserves_total_mass(ws in weights_strategy(), factor in 1u64..8) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        let bins = (p.bins() as u64 / factor + 1) as usize;
        let q = p.rebin(bins, factor).unwrap();
        prop_assert!(q.is_normalized());
        // Mean is preserved up to one new-bin width of quantization error.
        prop_assert!((q.mean() - p.mean()).abs() <= factor as f64 + 1e-9);
    }

    #[test]
    fn gaussian_quantize_mass_sums_to_one(
        mean in 1.0f64..500.0,
        std in 0.5f64..100.0,
    ) {
        let g = Gaussian::new(mean, std).unwrap();
        let pmf = g.quantize(1024, 1, 1e-12).unwrap();
        prop_assert!(pmf.is_normalized());
    }

    #[test]
    fn continuous_cdfs_monotone(
        x1 in -100.0f64..100.0,
        x2 in -100.0f64..100.0,
    ) {
        let (lo, hi) = if x1 <= x2 { (x1, x2) } else { (x2, x1) };
        let g = Gaussian::new(10.0, 5.0).unwrap();
        prop_assert!(g.cdf(lo) <= g.cdf(hi) + 1e-12);
        let e = Exponential::new(0.1).unwrap();
        prop_assert!(e.cdf(lo) <= e.cdf(hi) + 1e-12);
        let ln = LogNormal::new(1.0, 0.5).unwrap();
        prop_assert!(ln.cdf(lo) <= ln.cdf(hi) + 1e-12);
    }

    #[test]
    fn percentile_is_within_range(xs in prop::collection::vec(-1e6f64..1e6, 1..128), q in 0.0f64..1.0) {
        let p = percentile(&xs, q);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p >= min - 1e-9 && p <= max + 1e-9);
    }

    #[test]
    fn five_number_ordering(xs in prop::collection::vec(-1e4f64..1e4, 2..128)) {
        let s = FiveNumber::from_samples(&xs);
        prop_assert!(s.whisker_lo <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.whisker_hi + 1e-9);
    }

    #[test]
    fn ecdf_monotone_and_bounded(xs in prop::collection::vec(-1e4f64..1e4, 0..64)) {
        let e = Ecdf::from_samples(&xs);
        let mut prev = 0.0;
        for x in [-2e4, -1e4, 0.0, 1e4, 2e4] {
            let v = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&v));
            prop_assert!(v + 1e-12 >= prev);
            prev = v;
        }
    }

    #[test]
    fn lognormal_mean_std_round_trip(mean in 1.0f64..1e4, cv in 0.05f64..2.0) {
        let std = mean * cv;
        let ln = LogNormal::from_mean_std(mean, std).unwrap();
        prop_assert!((ln.mean() - mean).abs() / mean < 1e-9);
        prop_assert!((ln.variance().sqrt() - std).abs() / std < 1e-6);
    }
}

/// Oracle for the cached CDF: the naive left-to-right partial sum over
/// `probs()`, the computation the cache replaced. Summation order matches
/// `prefix_sums`, so equality below is exact (`to_bits`), not approximate.
fn check_cdf_cache(p: &Pmf) -> Result<(), TestCaseError> {
    let mut acc = 0.0f64;
    for l in 0..p.bins() {
        acc += p.probs()[l];
        prop_assert_eq!(
            p.head_mass(l).to_bits(),
            acc.to_bits(),
            "head_mass({}) diverged from naive prefix sum",
            l
        );
        let expect_cdf = if l + 1 >= p.bins() { 1.0 } else { acc.min(1.0) };
        prop_assert_eq!(p.cdf(l).to_bits(), expect_cdf.to_bits(), "cdf({}) diverged", l);
    }
    // Past-the-end queries saturate.
    prop_assert_eq!(p.cdf(p.bins() + 7), 1.0);
    prop_assert_eq!(p.head_mass(p.bins() + 7).to_bits(), acc.to_bits());
    Ok(())
}

proptest! {
    #[test]
    fn cdf_cache_matches_naive_from_weights(ws in weights_strategy(), bw in 1u64..16) {
        check_cdf_cache(&Pmf::from_weights(ws, bw).unwrap())?;
    }

    #[test]
    fn cdf_cache_matches_naive_after_support_floor(
        ws in weights_strategy(),
        floor in 1e-12f64..1e-3,
    ) {
        let p = Pmf::from_weights(ws, 1).unwrap().with_support_floor(floor).unwrap();
        check_cdf_cache(&p)?;
    }

    #[test]
    fn cdf_cache_matches_naive_after_rebin(
        ws in weights_strategy(),
        bins in 1usize..96,
        bw in 1u64..8,
    ) {
        let p = Pmf::from_weights(ws, 1).unwrap();
        check_cdf_cache(&p.rebin(bins, bw).unwrap())?;
    }

    #[test]
    fn cdf_cache_matches_naive_from_samples(
        samples in prop::collection::vec(1u64..500, 1..64),
        min_bins in 1usize..64,
        bw in 1u64..8,
    ) {
        check_cdf_cache(&Pmf::from_samples(&samples, min_bins, bw).unwrap())?;
    }

    #[test]
    fn cdf_cache_matches_naive_impulse_and_uniform(bins in 1usize..64, bin in 0usize..64) {
        check_cdf_cache(&Pmf::uniform(bins, 1).unwrap())?;
        if bin < bins {
            check_cdf_cache(&Pmf::impulse(bins, bin, 1).unwrap())?;
        }
    }
}

/// The quantizer's oracle: the unfused chain it replaced. CDF differences
/// taken just below each upper boundary (the tail folded into the last
/// bin), normalized by `Pmf::from_weights`, then floored and re-normalized
/// by `with_support_floor`.
fn quantize_unfused(
    d: &impl Continuous,
    bins: usize,
    bin_width: u64,
    floor: f64,
) -> Result<Pmf, rush_prob::ProbError> {
    let w = bin_width as f64;
    let mut prev = 0.0;
    let masses = (0..bins)
        .map(|l| {
            let hi = if l + 1 == bins { 1.0 } else { d.cdf((l + 1) as f64 * w - w * 1e-9) };
            let mass = (hi - prev).max(0.0);
            prev = hi;
            mass
        })
        .collect();
    Pmf::from_weights(masses, bin_width)?.with_support_floor(floor)
}

/// `quantize` against `quantize_unfused`, bit for bit in every bin's
/// probability and head mass.
fn check_fused_quantize(
    d: &impl Continuous,
    bins: usize,
    bin_width: u64,
    floor: f64,
) -> Result<(), TestCaseError> {
    let want = quantize_unfused(d, bins, bin_width, floor).unwrap();
    let got = d.quantize(bins, bin_width, floor).unwrap();
    prop_assert_eq!(got.bins(), bins);
    for l in 0..bins {
        prop_assert_eq!(
            (got.prob(l).to_bits(), got.head_mass(l).to_bits()),
            (want.prob(l).to_bits(), want.head_mass(l).to_bits()),
            "bin {} of {}",
            l,
            bins
        );
    }
    check_cdf_cache(&got)
}

/// The two support floors the estimators and tests use.
const FLOORS: [f64; 2] = [1e-12, 1e-4];

proptest! {
    #[test]
    fn gaussian_quantize_is_the_unfused_chain(
        mean in -100.0f64..20_000.0,
        std in prop_oneof![Just(1e-6), 1e-6f64..10.0, 10.0f64..5_000.0],
        bins in 1usize..=1024,
        bin_width in 2u64..64,
        floor in 0usize..2,
    ) {
        let g = Gaussian::new(mean, std).unwrap();
        check_fused_quantize(&g, bins, bin_width, FLOORS[floor])?;
    }

    #[test]
    fn lognormal_quantize_is_the_unfused_chain(
        mu in -2.0f64..9.0,
        sigma in prop_oneof![Just(1e-6), 1e-6f64..0.1, 0.1f64..2.0],
        bins in 1usize..=1024,
        bin_width in 2u64..64,
        floor in 0usize..2,
    ) {
        let ln = LogNormal::new(mu, sigma).unwrap();
        check_fused_quantize(&ln, bins, bin_width, FLOORS[floor])?;
    }
}
