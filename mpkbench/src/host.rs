//! Host facts the workloads are sized against (cache sizes, STREAM triad
//! bandwidth, the process's peak resident set), plus the timer and the
//! seeded generator every workload shares.

use std::time::Instant;

use fbmpk_sparse::Csr;

/// Per-core L2 bytes from sysfs (0 when unknown).
pub fn l2_bytes() -> u64 {
    for idx in 0..10 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(level) = read("level") else { break };
        let ty = read("type").unwrap_or_default();
        if level.trim() == "2" && matches!(ty.trim(), "Unified" | "Data") {
            return read("size").and_then(|s| parse_size(&s)).unwrap_or(0);
        }
    }
    0
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.char_indices().last()? {
        (i, 'K') => (&s[..i], 1 << 10),
        (i, 'M') => (&s[..i], 1 << 20),
        (i, 'G') => (&s[..i], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n * mult)
}

/// Peak resident set (VmHWM) of this process in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// STREAM triad `a = b + s·c` on `threads` threads over three arrays of
/// `working_set` bytes in total; the best of `reps` timed passes, in GB/s.
pub fn triad_gbs(working_set: usize, threads: usize, reps: usize) -> f64 {
    let n = working_set / (3 * std::mem::size_of::<f64>());
    let chunk = n.div_ceil(threads);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 17) as f64).collect();
    let c: Vec<f64> = (0..n).map(|i| 2.0 + (i % 13) as f64).collect();
    let mut a = vec![0.0f64; n];
    let mut best = f64::INFINITY;
    // One untimed pass faults the output pages in.
    for rep in 0..=reps {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((ac, bc), cc) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((ai, bi), ci) in ac.iter_mut().zip(bc).zip(cc) {
                        *ai = bi + 0.42 * ci;
                    }
                });
            }
        });
        let dt = t0.elapsed().as_secs_f64();
        std::hint::black_box(&a);
        if rep > 0 {
            best = best.min(dt);
        }
    }
    (3 * std::mem::size_of::<f64>() * n) as f64 / best / 1e9
}

/// `Aᵏx` through the benchmark's own scalar CSR SpMV on two threads, each
/// taking the rows that hold half the nonzeros. It is the host-speed
/// probe of the library workloads: no library kernel, so no change to
/// the program moves it, while it contends for the same cores, caches
/// and memory as the kernels timed next to it.
pub fn reference_power(a: &Csr, x: &[f64], k: usize) -> Vec<f64> {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    let mid = rp.partition_point(|&p| p < a.nnz() / 2).min(a.nrows());
    let rows = |first: usize, src: &[f64], out: &mut [f64]| {
        for (i, yi) in out.iter_mut().enumerate() {
            let r = first + i;
            *yi = (rp[r]..rp[r + 1]).map(|j| v[j] * src[ci[j] as usize]).sum();
        }
    };
    let (mut cur, mut next) = (x.to_vec(), vec![0.0; a.nrows()]);
    for _ in 0..k {
        let (lo, hi) = next.split_at_mut(mid);
        let src = &cur;
        std::thread::scope(|s| {
            s.spawn(|| rows(0, src, lo));
            rows(mid, src, hi);
        });
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Runs `f` and returns its output with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// splitmix64: the seeded source of every generated input.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A seeded vector with entries in [-1, 1).
pub fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = SplitMix(seed);
    (0..n).map(|_| rng.next_f64() * 2.0 - 1.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_size("105M"), Some(105 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("junk"), None);
    }

    #[test]
    fn seeded_vectors_repeat() {
        assert_eq!(seeded_vector(64, 7), seeded_vector(64, 7));
        assert_ne!(seeded_vector(64, 7), seeded_vector(64, 8));
        assert!(seeded_vector(64, 7).iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
