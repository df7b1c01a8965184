//! E21 — the resource observatory's headline measurement: Horn-SAT
//! grounding + Minoux solving needs peak-live memory *linear* in the
//! formula size `|D|`.
//!
//! Each solve runs in its own capture, whose peak-live watermark starts
//! at zero, so the measurement is "how many extra live bytes did this
//! run need at its worst moment". A log-log least-squares fit over a
//! geometric size ladder should come out with slope ≈ 1 (linear) and an
//! R² near 1 (a genuine power law, not noise).

use treequery_core::obs::alloc::AccountingGuard;
use treequery_core::obs::capture;

use super::e15_hornsat::random_formula;
use crate::util::header;

/// A least-squares fit of `log y = slope · log x + c`.
#[derive(Clone, Copy, Debug)]
pub struct ScalingFit {
    /// Exponent of the fitted power law (1.0 = linear).
    pub slope: f64,
    /// Coefficient of determination of the log-log fit.
    pub r2: f64,
}

/// Fits a power law through `(x, y)` points via least squares in
/// log-log space. Points with a zero coordinate are skipped.
pub fn log_log_fit(points: &[(f64, f64)]) -> ScalingFit {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    let n = logs.len() as f64;
    assert!(n >= 2.0, "need at least two positive points to fit");
    let mean_x = logs.iter().map(|(x, _)| x).sum::<f64>() / n;
    let mean_y = logs.iter().map(|(_, y)| y).sum::<f64>() / n;
    let sxy: f64 = logs.iter().map(|(x, y)| (x - mean_x) * (y - mean_y)).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| (x - mean_x).powi(2)).sum();
    let syy: f64 = logs.iter().map(|(_, y)| (y - mean_y).powi(2)).sum();
    let slope = sxy / sxx;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    ScalingFit { slope, r2 }
}

/// Solves a random definite Horn formula of `m` rules and returns
/// `(|D| in literals, peak-live bytes of the solve)`.
pub fn measure_peak_live(m: usize) -> (u64, u64) {
    let f = random_formula(m, 21);
    let size = f.size() as u64;
    let _accounting = AccountingGuard::begin();
    // One warm solve so lazy one-time allocations don't pollute the
    // smallest size's watermark.
    let _ = f.solve();
    let (solved, captured) = capture(|| f.solve());
    std::hint::black_box(solved.num_true());
    (size, captured.alloc.peak_live)
}

/// Measures the ladder and returns the points plus the fit.
pub fn scaling(sizes: &[usize]) -> (Vec<(u64, u64)>, ScalingFit) {
    let points: Vec<(u64, u64)> = sizes.iter().map(|&m| measure_peak_live(m)).collect();
    let fit = log_log_fit(
        &points
            .iter()
            .map(|&(x, y)| (x as f64, y as f64))
            .collect::<Vec<_>>(),
    );
    (points, fit)
}

pub fn run() {
    header(
        "E21",
        "Peak-live memory of Horn-SAT solving is linear in |D|",
    );
    println!(
        "{:>12} {:>16} {:>14}",
        "|D| literals", "peak-live bytes", "bytes per lit"
    );
    let (points, fit) = scaling(&[20_000, 40_000, 80_000, 160_000, 320_000]);
    for (size, peak) in &points {
        println!(
            "{size:>12} {peak:>16} {:>14.2}",
            *peak as f64 / *size as f64
        );
    }
    println!(
        "log-log fit: slope {:.3} (1.0 = linear), R^2 {:.4}",
        fit.slope, fit.r2
    );
    println!("peak-live memory grows linearly with the formula size.");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_known_power_laws() {
        let linear: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, 3.0 * i as f64)).collect();
        let fit = log_log_fit(&linear);
        assert!((fit.slope - 1.0).abs() < 1e-9, "{fit:?}");
        assert!(fit.r2 > 0.999, "{fit:?}");
        let quadratic: Vec<(f64, f64)> = (1..=6).map(|i| (i as f64, (i * i) as f64)).collect();
        let fit = log_log_fit(&quadratic);
        assert!((fit.slope - 2.0).abs() < 1e-9, "{fit:?}");
    }

    /// The experiment's claim, on a reduced ladder so the test stays
    /// fast in debug builds: peak-live bytes scale linearly in |D|.
    #[test]
    fn horn_sat_peak_live_is_linear() {
        let (points, fit) = scaling(&[8_000, 16_000, 32_000, 64_000]);
        assert!(
            (0.75..=1.25).contains(&fit.slope),
            "slope {:.3} not ~linear; points: {points:?}",
            fit.slope
        );
        assert!(fit.r2 >= 0.95, "R^2 {:.4}; points: {points:?}", fit.r2);
    }
}
