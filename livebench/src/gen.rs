//! Seeded load generators. Every input the runtime sees — arrival times,
//! tenant choices, call arguments, setup blobs — derives from the `--seed`
//! argument through these streams, so one seed always yields one schedule.

/// SplitMix64: tiny, seedable, and stable across platforms and releases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

/// Independent streams per input property, so changing how one property is
/// drawn never shifts the others.
const STREAM_ARGS: u64 = 0xa5a5_0001;
const STREAM_ARRIVALS: u64 = 0xa5a5_0002;
const STREAM_TENANTS: u64 = 0xa5a5_0003;
const STREAM_BLOBS: u64 = 0xa5a5_0004;

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1]: never 0, so `ln` is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Zipf(s) over `0..n`: rank `k` is drawn with weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// One generated unit: which tenant it addresses, which argument it
/// carries, and (open loop only) when it is due, in seconds from the start
/// of the window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    pub due_s: f64,
    pub tenant: usize,
    pub arg: usize,
}

/// Closed-loop unit stream: one tenant, seeded arguments, no due times.
pub struct ArgStream {
    rng: Rng,
    domain: usize,
}

impl ArgStream {
    pub fn new(seed: u64, domain: usize) -> ArgStream {
        ArgStream {
            rng: Rng::new(seed, STREAM_ARGS),
            domain,
        }
    }

    pub fn next_arrival(&mut self) -> Arrival {
        Arrival {
            due_s: 0.0,
            tenant: 0,
            arg: self.rng.below(self.domain),
        }
    }
}

/// Open-loop schedule: Poisson arrivals at `rate` per second over
/// `window_s`, each addressed to a Zipf-chosen tenant with a seeded
/// argument.
pub fn poisson_schedule(
    seed: u64,
    rate: f64,
    window_s: f64,
    tenants: usize,
    zipf_s: f64,
    domain: usize,
) -> Vec<Arrival> {
    let mut times = Rng::new(seed, STREAM_ARRIVALS);
    let mut picks = Rng::new(seed, STREAM_TENANTS);
    let mut args = Rng::new(seed, STREAM_ARGS);
    let zipf = Zipf::new(tenants, zipf_s);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -times.unit().ln() / rate;
        if t >= window_s {
            return out;
        }
        out.push(Arrival {
            due_s: t,
            tenant: zipf.sample(&mut picks),
            arg: args.below(domain),
        });
    }
}

/// A tenant's context-parameter blob, standing in for the model parameters
/// the paper ships with a library's context.
pub fn param_blob(seed: u64, tenant: usize, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ tenant as u64, STREAM_BLOBS);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(7, 500.0, 2.0, 16, 1.0, 128);
        let b = poisson_schedule(7, 500.0, 2.0, 16, 1.0, 128);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = poisson_schedule(8, 500.0, 2.0, 16, 1.0, 128);
        assert_ne!(a, c, "another seed gives another schedule");

        let mut s1 = ArgStream::new(7, 128);
        let mut s2 = ArgStream::new(7, 128);
        for _ in 0..100 {
            assert_eq!(s1.next_arrival(), s2.next_arrival());
        }
        assert_eq!(param_blob(7, 3, 64), param_blob(7, 3, 64));
        assert_ne!(param_blob(7, 3, 64), param_blob(7, 4, 64));
    }

    #[test]
    fn poisson_rate_and_order() {
        let s = poisson_schedule(1, 1000.0, 5.0, 16, 1.0, 128);
        let n = s.len() as f64;
        assert!((n - 5000.0).abs() < 5.0 * 5000f64.sqrt(), "{n} arrivals");
        assert!(s.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!(s.iter().all(|a| a.tenant < 16 && a.arg < 128));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(16, 1.0);
        let mut rng = Rng::new(3, STREAM_TENANTS);
        let mut counts = [0usize; 16];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        // rank 0 carries 1/H(16) ≈ 29.6% of the mass, rank 15 about 1.8%
        assert!((5000..7000).contains(&counts[0]), "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[15]);
    }
}
