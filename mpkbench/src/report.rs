//! Order statistics, output checking and the result line.

use fbmpk_sparse::vecops::rel_err_inf;

/// The repository's FBMPK ≡ standard-MPK invariant.
pub const TOLERANCE: f64 = 1e-12;

/// Counts checked operations and remembers the first wrong one.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Checker {
    /// Records one operation that failed outright (error return, non-200).
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(what());
        }
    }

    /// Records one operation whose output `got` must match `want` to
    /// [`TOLERANCE`] in the relative infinity norm. Returns whether it did.
    /// Non-finite entries on either side fail: the norm's `max` would
    /// skip a NaN.
    pub fn check(&mut self, what: &str, got: &[f64], want: &[f64]) -> bool {
        let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
        let err = if got.len() == want.len() && finite(got) && finite(want) {
            rel_err_inf(got, want)
        } else {
            f64::INFINITY
        };
        if err > TOLERANCE {
            self.fail(|| format!("{what}: rel_err_inf {err:e} > {TOLERANCE:e}"));
            return false;
        }
        self.attempted += 1;
        true
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Metrics of one run as `(name, value)`, in insertion order; units are
/// attached from the declared metric tables when the run is reported.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64) {
        self.0.push((name.into(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// The last line of the benchmark's output, from `(name, value, unit)`.
pub fn result_line(correct: bool, checker: &Checker, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Nearest-rank percentile `p` in (0, 100]; `+∞` entries sort last.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_reference_is_caught() {
        let want: Vec<f64> = (0..1000).map(|i| (i as f64).sin()).collect();
        let mut checker = Checker::default();
        assert!(checker.check("exact", &want, &want));
        let mut corrupted = want.clone();
        corrupted[417] += 1e-9;
        assert!(!checker.check("corrupted", &want, &corrupted));
        corrupted[417] = f64::NAN;
        assert!(!checker.check("nan", &want, &corrupted));
        assert!(!checker.check("short", &want[..999], &want));
        assert_eq!((checker.attempted, checker.failed), (4, 3));
        assert!(checker.first_failure.unwrap().starts_with("corrupted"));
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 190.0);
        assert_eq!(percentile(&[1.0, f64::INFINITY], 95.0), f64::INFINITY);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn result_line_shape() {
        let m = [("setup_s".to_string(), 0.8127, "s")];
        let c = Checker { attempted: 3, ..Default::default() };
        assert_eq!(
            result_line(true, &c, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
