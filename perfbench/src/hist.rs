//! An exact latency histogram: one bucket per nanosecond below
//! [`LINEAR_NS`], raw values above it.  Quantiles are exact, so a run's
//! p50 and p99 are measured values rather than bucket boundaries that
//! would read the same on every run.

/// Latencies below this many nanoseconds get a bucket each.
pub const LINEAR_NS: usize = 1 << 16;

/// Per-op latencies in nanoseconds.
pub struct Hist {
    linear: Vec<u64>,
    over: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            linear: vec![0; LINEAR_NS],
            over: Vec::new(),
            count: 0,
            sum: 0,
        }
    }
}

impl Hist {
    /// Record one latency.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.linear.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.over.push(ns),
        }
        self.count += 1;
        self.sum += ns as u128;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.linear.iter_mut().zip(&other.linear) {
            *a += b;
        }
        self.over.extend_from_slice(&other.over);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile `q` in `[0, 1]` (0 when empty).
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.linear.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ns as u64;
            }
        }
        self.over.sort_unstable();
        self.over[(rank - seen - 1) as usize]
    }
}

/// Median of `xs` (mean of the middle two for even lengths; 0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_across_both_regions() {
        let mut h = Hist::default();
        for ns in 1..=100 {
            h.record(ns);
        }
        h.record(LINEAR_NS as u64 + 5);
        h.record(LINEAR_NS as u64 + 1);
        assert_eq!(h.count(), 102);
        assert_eq!(h.quantile(0.5), 51);
        assert_eq!(h.quantile(1.0), LINEAR_NS as u64 + 5);
        assert_eq!(h.quantile(101.0 / 102.0), LINEAR_NS as u64 + 1);
        let mut m = Hist::default();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 204);
        assert_eq!(m.quantile(0.5), 51);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
