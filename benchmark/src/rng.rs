//! The benchmark's own random source. Every input the engine receives is a
//! pure function of `--seed` through this file, so a pinned op-stream hash
//! stays valid whatever happens to the `rand` shim the crates use.

/// SplitMix64 step, used to expand seeds and to derive independent streams.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ (Blackman & Vigna).
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// An independent stream for one (workload, lane) of a run: lanes are
    /// client threads, recovery trials, or the loader.
    pub fn stream(seed: u64, workload_tag: u64, lane: u64) -> Rng {
        let mut sm = seed ^ workload_tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let a = splitmix64(&mut sm);
        let mut sm2 = a ^ lane.wrapping_mul(0x9FB2_1C65_1E98_DF25);
        Rng::new(splitmix64(&mut sm2))
    }

    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for every
    /// `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// `TpccDatabase::execute` draws its row choices from a `rand::Rng`; this
/// hands it the benchmark's generator.
impl rand::Rng for Rng {
    fn next_u64(&mut self) -> u64 {
        Rng::next_u64(self)
    }
}

/// Zipf(θ) over `0..n`, the YCSB / Gray et al. construction: item `i` is
/// drawn with probability proportional to `1 / (i + 1)^θ`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    half_pow_theta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 1 && (0.0..1.0).contains(&theta));
        let zeta = |m: u64| (1..=m).map(|i| (i as f64).powf(-theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
            half_pow_theta: 0.5f64.powf(theta),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + self.half_pow_theta {
            return 1;
        }
        let v = ((self.eta * u - self.eta + 1.0).powf(self.alpha) * self.n as f64) as u64;
        v.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_differ_by_seed_workload_and_lane() {
        let first = |mut r: Rng| r.next_u64();
        let base = first(Rng::stream(1, 2, 3));
        assert_eq!(base, first(Rng::stream(1, 2, 3)));
        assert_ne!(base, first(Rng::stream(2, 2, 3)));
        assert_ne!(base, first(Rng::stream(1, 3, 3)));
        assert_ne!(base, first(Rng::stream(1, 2, 4)));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1_000, 0.99);
        let mut rng = Rng::new(7);
        let mut head = 0;
        for _ in 0..10_000 {
            let k = z.sample(&mut rng);
            assert!(k < 1_000);
            if k < 10 {
                head += 1;
            }
        }
        assert!(head > 3_000, "top 1% of keys drew only {head} of 10000");
    }
}
