//! Window statistics. A run is cut into windows; a throughput is the upper
//! quartile of the window rates and a latency the lower quartile of the
//! window medians, so that windows measured while the host ran in a slow
//! state do not set the figure. Every timing also keeps all its samples
//! for the median/tail/count diagnostics.

/// Linear-interpolation quantile of `values` (`q` in `[0, 1]`); `NaN` when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The median, the highest percentile with at least ten samples beyond
/// it, and the sample count, as one diagnostic string.
pub fn describe(values: &[f64]) -> String {
    let n = values.len();
    // Percentiles in tenths of a percent, so the count beyond is exact.
    let tail = [999, 990, 950, 900, 750]
        .into_iter()
        .find(|&p| n * (1000 - p) / 1000 >= 10);
    let tail = match tail {
        Some(p) => format!(
            "p{}={:.6}",
            p as f64 / 10.0,
            quantile(values, p as f64 / 1000.0)
        ),
        None => "tail=n/a".to_string(),
    };
    format!("median={:.6} {tail} n={n}", median(values))
}

/// Latency samples of one kind, grouped into windows.
#[derive(Default)]
pub struct Timing {
    all: Vec<f64>,
    current: Vec<f64>,
    window_medians: Vec<f64>,
}

impl Timing {
    pub fn push(&mut self, value: f64) {
        self.all.push(value);
        self.current.push(value);
    }

    /// Close the current window (a no-op when it holds no samples).
    pub fn close_window(&mut self) {
        if !self.current.is_empty() {
            self.window_medians.push(median(&self.current));
            self.current.clear();
        }
    }

    /// Lower quartile of the window medians.
    pub fn figure(&self) -> f64 {
        quantile(&self.window_medians, 0.25)
    }

    pub fn samples(&self) -> &[f64] {
        &self.all
    }
}

/// Window rates of one kind.
#[derive(Default)]
pub struct Rates {
    rates: Vec<f64>,
}

impl Rates {
    pub fn push(&mut self, rate: f64) {
        self.rates.push(rate);
    }

    /// Upper quartile of the window rates.
    pub fn figure(&self) -> f64 {
        quantile(&self.rates, 0.75)
    }

    pub fn samples(&self) -> &[f64] {
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.75), 4.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn timing_takes_lower_quartile_of_window_medians() {
        let mut t = Timing::default();
        for window in [
            [1.0, 9.0, 2.0],
            [3.0, 3.0, 3.0],
            [5.0, 6.0, 7.0],
            [8.0, 8.0, 9.0],
        ] {
            for x in window {
                t.push(x);
            }
            t.close_window();
        }
        // Window medians 2, 3, 6, 8 → lower quartile 2.75.
        assert_eq!(t.figure(), 2.75);
        assert_eq!(t.samples().len(), 12);
    }

    #[test]
    fn describe_names_a_tail_only_with_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..15).map(f64::from).collect();
        assert!(describe(&few).contains("tail=n/a"));
        let many: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(describe(&many).contains("p90="));
    }
}
