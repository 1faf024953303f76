//! Order statistics over measured samples.

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of `xs`: the highest percentile that still has at least ten
/// samples beyond it, as `(percentile, value)`. `None` when fewer than
/// eleven samples exist, so no percentile can be supported.
fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    const BEYOND: usize = 10;
    let s = sorted(xs);
    let n = s.len();
    if n <= BEYOND {
        return None;
    }
    // Sample index n-1-BEYOND has exactly BEYOND samples above it.
    let idx = n - 1 - BEYOND;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// A tail that one slow collective cannot swing: consecutive ops' samples
/// are pooled into blocks of at least `block` samples (a short remainder
/// is dropped; with no full block, everything is one block), [`tail`] is
/// taken per block, and the median block tail is returned as
/// `(percentile, value, samples per block, blocks)`.
pub fn block_tail(ops: &[Vec<f64>], block: usize) -> Option<(f64, f64, usize, usize)> {
    let mut blocks: Vec<Vec<f64>> = vec![Vec::new()];
    for op in ops {
        let last = blocks.last_mut().expect("never empty");
        if last.len() >= block {
            blocks.push(op.clone());
        } else {
            last.extend(op);
        }
    }
    if blocks.len() > 1 && blocks.last().is_some_and(|b| b.len() < block) {
        blocks.pop();
    }
    let tails: Vec<(f64, f64)> = blocks.iter().filter_map(|b| tail(b)).collect();
    let value = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>())?;
    Some((tails[0].0, value, blocks[0].len(), blocks.len()))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs).expect("100 samples support a tail");
        assert_eq!(v, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }

    #[test]
    fn block_tail_is_the_median_of_full_blocks() {
        // Six ops of 60 samples pool into three blocks of 120.
        let mut ops: Vec<Vec<f64>> = (0..6)
            .map(|op| (0..60).map(|i| f64::from(op * 100 + i)).collect())
            .collect();
        ops[0].iter_mut().for_each(|x| *x += 1e9);
        let (pct, value, size, blocks) = block_tail(&ops, 100).expect("full blocks");
        assert_eq!((size, blocks), (120, 3));
        assert_eq!(pct, 100.0 * 110.0 / 120.0);
        // The slow op swings only its own block: the median is the tail
        // of the later of the two calm blocks.
        assert_eq!(value, 549.0);
        // A short remainder is dropped; with no full block, all is one.
        assert_eq!(block_tail(&ops[..5], 100).map(|t| t.3), Some(2));
        assert_eq!(
            block_tail(&ops[..1], 100).map(|t| (t.2, t.3)),
            Some((60, 1))
        );
        assert_eq!(block_tail(&[vec![1.0; 5]], 100), None);
    }
}
