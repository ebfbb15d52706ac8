//! Machine-speed calibration for the compute-bound workloads.
//!
//! The benchmark runs on shared virtual machines whose speed switches
//! between levels lasting seconds to minutes: the same op can take 1.5×
//! as long from one level to the next. A run times a fixed reference
//! kernel (the benchmark's own code, never the program's) every
//! [`PERIOD`] — between ops, or for `daemon_mix` on a thread beside the
//! clients — and scales its computation-bound time metrics by
//! `(NOMINAL_US / k) ^ SENSITIVITY`, with `k` the run's median kernel
//! time. A change to the
//! program moves the op times and leaves the kernel alone, so it shows in
//! full; a change of machine speed moves both and largely cancels out.
//! The unscaled figures and `k` stay in the run's full record.

use crate::trace::median;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// The kernel time at which scaled and unscaled figures agree: about
/// its time on the fast level of the 2-core machine the bounds were set
/// on.
pub const NOMINAL_US: f64 = 500.0;
/// How much of the kernel's slowdown the program's times share. Over
/// runs of this machine at different speed levels, the log-log slope of
/// the program's time metrics on the kernel time ranged 0.4–0.8 (small
/// ops with hot caches follow the kernel closely, large ops and warm
/// residual runs less); 0.5 leaves the least spread over all of them.
pub const SENSITIVITY: f64 = 0.5;
/// Time between two kernel samples.
pub const PERIOD: Duration = Duration::from_millis(25);

/// Kernel samples of one run.
#[derive(Debug, Default)]
pub struct Speed {
    last: Option<Instant>,
    /// Kernel times in µs.
    samples: Vec<f64>,
}

impl Speed {
    /// Times the kernel if [`PERIOD`] has passed since the last sample.
    /// Call it between ops, or from a thread of its own.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|l| l.elapsed() < PERIOD) {
            return;
        }
        self.samples.push(kernel_us());
        self.last = Some(Instant::now());
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// The run's median kernel time.
    pub fn kernel_us(&self) -> f64 {
        median(&self.samples).unwrap_or(NOMINAL_US)
    }

    /// The factor the run's times are multiplied by.
    pub fn factor(&self) -> f64 {
        (NOMINAL_US / self.kernel_us()).powf(SENSITIVITY)
    }
}

/// The reference kernel: a small tree-walking evaluator over freshly
/// built expression trees, with shared nodes, a string-keyed function
/// table and environments copied per call — the kind of work the
/// specialiser and the front end do, in fixed amount. Returns its time in
/// microseconds.
pub fn kernel_us() -> f64 {
    let t0 = thread_cpu();
    let mut rng = 0x9E37_79B9_u64;
    let mut acc = 0u64;
    for round in 0..2u64 {
        let fns: HashMap<String, Expr> = (0..16)
            .map(|f| (format!("f{f}"), Expr::gen(&mut rng, 6)))
            .collect();
        let main = Expr::gen(&mut rng, 7);
        for x in 0..4u64 {
            acc = acc.wrapping_add(main.eval(&[x, round], &fns, 4));
        }
    }
    std::hint::black_box(acc);
    (thread_cpu() - t0).as_secs_f64() * 1e6
}

/// CPU time of the calling thread. Unlike wall time it leaves out time
/// the thread waited for a core, so a kernel timed beside busy threads
/// (`daemon_mix`) still measures the core's speed, not the scheduler.
fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through a valid
    // pointer; this clock exists on every Linux the benchmark runs on.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

enum Expr {
    Lit(u64),
    Var(usize),
    Add(Rc<Expr>, Rc<Expr>),
    Mul(Rc<Expr>, Rc<Expr>),
    If(Rc<Expr>, Rc<Expr>, Rc<Expr>),
    Call(String, Rc<Expr>),
}

impl Expr {
    fn gen(rng: &mut u64, depth: u32) -> Expr {
        let mut next = || {
            *rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            *rng >> 33
        };
        if depth == 0 {
            return if next() % 2 == 0 {
                Expr::Lit(next() % 10)
            } else {
                Expr::Var(next() as usize)
            };
        }
        let sub = |rng: &mut u64| Rc::new(Expr::gen(rng, depth - 1));
        match next() % 5 {
            0 => Expr::Add(sub(rng), sub(rng)),
            1 => Expr::Mul(sub(rng), sub(rng)),
            2 => Expr::If(sub(rng), sub(rng), sub(rng)),
            3 => {
                let f = format!("f{}", next() % 16);
                Expr::Call(f, sub(rng))
            }
            _ => Expr::Lit(next() % 7),
        }
    }

    fn eval(&self, env: &[u64], fns: &HashMap<String, Expr>, fuel: u32) -> u64 {
        match self {
            Expr::Lit(c) => *c,
            Expr::Var(i) => env[*i % env.len()],
            Expr::Add(a, b) => a.eval(env, fns, fuel).wrapping_add(b.eval(env, fns, fuel)),
            Expr::Mul(a, b) => a.eval(env, fns, fuel).wrapping_mul(b.eval(env, fns, fuel)),
            Expr::If(c, a, b) => {
                if c.eval(env, fns, fuel) & 1 == 0 {
                    a.eval(env, fns, fuel)
                } else {
                    b.eval(env, fns, fuel)
                }
            }
            Expr::Call(f, a) => {
                if fuel == 0 {
                    return 1;
                }
                let mut inner = env.to_vec();
                inner.push(a.eval(env, fns, fuel));
                fns[f].eval(&inner, fns, fuel - 1)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_follows_the_median_kernel_time() {
        let mut s = Speed::default();
        assert_eq!(s.factor(), 1.0, "no samples: unscaled");
        s.samples = vec![NOMINAL_US, 4.0 * NOMINAL_US, 4.0 * NOMINAL_US];
        assert_eq!(s.factor(), 0.25f64.powf(SENSITIVITY));
    }

    #[test]
    fn kernel_is_sampled_once_per_period() {
        let mut s = Speed::default();
        s.tick();
        s.tick();
        assert_eq!(s.samples(), 1, "a second tick within the period is skipped");
        assert!(s.kernel_us() > 0.0);
    }
}
