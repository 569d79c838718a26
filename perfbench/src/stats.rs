//! Order statistics and span arithmetic shared by every workload.

/// Weighted nearest-rank percentile (`p` in `[0, 100]`) of
/// `(value, weight)` samples: the smallest value whose cumulative weight
/// reaches `p` % of the total. With equal weights this is the classic
/// nearest-rank percentile. Returns `None` when no sample has weight.
pub fn weighted_percentile(samples: &[(f64, f64)], p: f64) -> Option<f64> {
    let total: f64 = samples.iter().map(|&(_, w)| w).sum();
    if total <= 0.0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let target = (p / 100.0).clamp(0.0, 1.0) * total;
    let mut cumulative = 0.0;
    for &(value, weight) in &sorted {
        cumulative += weight;
        // A relative slack absorbs the rounding of summed fractional
        // weights (three weights of 1/3 must reach a target of 1).
        if cumulative >= target * (1.0 - 1e-12) && weight > 0.0 {
            return Some(value);
        }
    }
    sorted.last().map(|&(v, _)| v)
}

/// Arithmetic mean of `values` (`None` when empty).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Length of the part of `parent` that at least one of `children` covers.
/// Children may overlap each other (parallel workers) and may stick out of
/// the parent; only the covered part inside the parent counts, once.
pub fn covered(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.0), e.min(parent.1)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut run: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                total += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((rs, re)) = run {
        total += re - rs;
    }
    total
}

/// Self time of a span: its duration minus the part its child spans cover.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    (parent.1 - parent.0) - covered(parent, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_percentile_with_equal_weights_is_nearest_rank() {
        let hundred: Vec<(f64, f64)> = (1..=100).rev().map(|v| (f64::from(v), 1.0)).collect();
        assert_eq!(weighted_percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(weighted_percentile(&hundred, 90.0), Some(90.0));
        assert_eq!(weighted_percentile(&hundred, 100.0), Some(100.0));
        assert_eq!(weighted_percentile(&hundred, 0.0), Some(1.0));
        assert_eq!(weighted_percentile(&[(7.0, 1.0)], 90.0), Some(7.0));
        assert_eq!(weighted_percentile(&[], 50.0), None);
    }

    #[test]
    fn weights_balance_unequal_sample_counts() {
        // Group A ran three times (weight 1/3 each), group B once: each
        // group holds half the weight, so B's single sample reaches down
        // to the 51st percentile although it is a quarter of the samples.
        let third = 1.0 / 3.0;
        let samples = [(1.0, third), (1.0, third), (1.0, third), (9.0, 1.0)];
        assert_eq!(weighted_percentile(&samples, 50.0), Some(1.0));
        assert_eq!(weighted_percentile(&samples, 51.0), Some(9.0));
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let parent = (0.0, 10.0);
        let children = [(1.0, 2.0), (4.0, 7.0)];
        assert_eq!(covered(parent, &children), 4.0);
        assert_eq!(self_time(parent, &children), 6.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers training at the same time cover their union only.
        let parent = (0.0, 10.0);
        let children = [(2.0, 6.0), (3.0, 5.0), (5.0, 8.0)];
        assert_eq!(covered(parent, &children), 6.0);
        assert_eq!(self_time(parent, &children), 4.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let parent = (2.0, 6.0);
        let children = [(0.0, 3.0), (5.0, 9.0), (7.0, 8.0), (-2.0, -1.0)];
        assert_eq!(covered(parent, &children), 2.0);
        assert_eq!(self_time(parent, &children), 2.0);
        assert_eq!(self_time(parent, &[]), 4.0);
    }
}
