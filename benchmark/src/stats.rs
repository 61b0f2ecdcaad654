//! Order statistics over the samples of one run.

/// Median, quartiles, extremes and count of a sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let sorted = sorted(samples);
        Some(Summary {
            median: quantile_sorted(&sorted, 0.5),
            q1: quantile_sorted(&sorted, 0.25),
            q3: quantile_sorted(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            count: sorted.len(),
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Linear-interpolated quantile of an ascending slice.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q` quantile of `samples` (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    quantile_sorted(&sorted(samples), q)
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_a_known_set() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(s.count, 5);
        assert!((s.spread() - 2.0 / 3.0).abs() < 1e-12);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
