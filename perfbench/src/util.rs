//! Small helpers: a seeded generator, order statistics, peak RSS.

/// SplitMix64: the benchmark's own seeded stream, so the inputs it draws
/// (parameters, orders, arrival picks) depend on `--seed` alone and not
/// on any generator inside the program under test.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_6a33_a5f1_0c7d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Seconds one [`SpeedProbe::time`] takes on the machine the benchmark
/// was defined on (median over runs, shared 2-vCPU virtual machine).
pub const PROBE_REF_S: f64 = 0.0011;

/// A fixed CPU and cache kernel that shares no code with the library:
/// 30 000 pseudo-random inserts into an open-addressing table of 2^16
/// slots, then an in-place sort of the keys.
///
/// The shared host the benchmark runs on changes speed by up to 2x over
/// minutes, for every program on it. Timing this kernel between passes
/// tells how fast the machine is at that moment, and reported times are
/// scaled to [`PROBE_REF_S`] (see README.md). The probe's memory is
/// allocated once, in [`SpeedProbe::new`], before the library runs, and
/// timing it allocates nothing, so what the library does to the allocator
/// or its arenas cannot change what the probe measures. It runs on the
/// main thread between timed intervals, never during one.
pub struct SpeedProbe {
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let mut probe = SpeedProbe {
            table: vec![0; 1 << 16],
            keys: vec![0; 30_000],
        };
        probe.time();
        probe
    }

    fn once(&mut self) -> f64 {
        let start = std::time::Instant::now();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut x = 0x1234_5678u64;
        for key in self.keys.iter_mut() {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *key = (x >> 20) | 1;
            let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 48) as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != *key {
                slot = (slot + 1) & mask;
            }
            self.table[slot] = *key;
        }
        self.keys.sort_unstable();
        std::hint::black_box(&self.keys);
        start.elapsed().as_secs_f64()
    }

    /// Seconds the kernel takes now, best of two.
    pub fn time(&mut self) -> f64 {
        self.once().min(self.once())
    }

    /// How much slower than the reference machine this one is now.
    pub fn slowdown(&mut self) -> f64 {
        self.time() / PROBE_REF_S
    }
}

/// The `q`-quantile of `values` (linear interpolation between closest
/// ranks); 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (3..=5).contains(&r.range(3, 5))));
    }
}
