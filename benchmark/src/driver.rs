//! The load shape every workload shares: generator lanes, alternating
//! closed and open windows, and the median over undisturbed rounds.
//!
//! A *lane* is one generator thread with its own connection, pinned to its
//! own CPU; there are never more lanes than hardware threads. A *round* is a
//! closed window (each lane sends its next op when the previous one returns)
//! followed by an open window (a seeded Poisson schedule at the workload's
//! fixed rate, latency timed from the instant the op was due). Alternating
//! the two makes both see the same host conditions.
//!
//! Every reported value is the median over the rounds of the per-window
//! value, taken over the windows the hypervisor left alone: a window during
//! which the guest lost more than 1 % of its CPU time to *steal* measured
//! the neighbours, not the program (see [`Rounds::reduce`]).

use crate::host;
use crate::rng::{poisson_schedule, Rng};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Slices a closed window is cut into for its goodput.
const SLICES: usize = 10;

/// One generator thread's view of a workload.
pub trait Lane: Send {
    /// Called before every window, outside the timed region.
    fn begin_window(&mut self) {}

    /// Run this lane's next operation and check its outcome. Returns the
    /// goodput units completed correctly (tokens, decisions, transactions);
    /// 0 marks the op failed — refused, errored or wrong. A lane's inputs
    /// are a function of the seed and of how many ops it has run.
    fn op(&mut self, t: &mut Tracer) -> u32;
}

/// When a closed loop stops.
#[derive(Clone, Copy)]
pub enum Stop {
    After(Duration),
    Ops(u64),
}

/// One op as its lane saw it, in seconds from the window start.
struct Op {
    /// When the op was due (open window) or sent (closed window).
    from_s: f64,
    sent_s: f64,
    done_s: f64,
    units: u32,
}

/// What one window measured, lanes pooled.
pub struct Window {
    ops: Vec<Op>,
    pub cpu_us: u64,
    pub ctx_switches: u64,
    /// Steal time of the whole guest during the window, 10 ms ticks.
    pub steal_ticks: u64,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|op| op.units == 0).count() as u64
    }

    /// Goodput units of the ops that succeeded.
    pub fn units(&self) -> u64 {
        self.ops.iter().map(|op| op.units as u64).sum()
    }

    /// Per-op latency, µs: from the send in a closed window, from the due
    /// time in an open one.
    pub fn latency_us(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|op| (op.done_s - op.from_s) * 1e6)
            .collect()
    }

    /// How late each op was sent, µs (zero throughout a closed window).
    pub fn lateness_us(&self) -> Vec<f64> {
        self.ops
            .iter()
            .map(|op| (op.sent_s - op.from_s) * 1e6)
            .collect()
    }

    /// Goodput of a closed window of length `window`: units completed per
    /// second in the median of [`SLICES`] equal slices. An op counts toward
    /// a slice by the share of its duration inside it, so a 20 ms block is
    /// not quantised by a 100 ms slice. A stall of the host empties one or
    /// two slices and leaves the median alone, where it would cost the
    /// plain units ÷ seconds its full length.
    pub fn goodput_per_s(&self, window: Duration) -> f64 {
        let width = window.as_secs_f64() / SLICES as f64;
        let mut units = [0.0; SLICES];
        for op in self.ops.iter().filter(|op| op.units > 0) {
            let span = (op.done_s - op.sent_s).max(1e-9);
            let first = (op.sent_s / width) as usize;
            for (k, slot) in units.iter_mut().enumerate().skip(first) {
                let (lo, hi) = (k as f64 * width, (k + 1) as f64 * width);
                if op.done_s <= lo {
                    break;
                }
                let inside = op.done_s.min(hi) - op.sent_s.max(lo);
                *slot += op.units as f64 * inside / span;
            }
        }
        median(&mut units) / width
    }
}

/// Sleep until shortly before `target`, then spin: a bare `sleep` wakes
/// 50–150 µs late on this kind of host, which would be charged to the
/// program as latency from the due time. Spinning is bounded per op so the
/// generator does not take a core from the server.
fn wait_until(target: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    loop {
        let now = Instant::now();
        if now >= target {
            return;
        }
        let left = target - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Run `body` on one thread per lane, each pinned to its own CPU, between
/// two readings of the process's resource usage. Only lane 0 may be traced.
fn on_lanes<L: Lane>(
    lanes: &mut [L],
    tracer: &mut Tracer,
    body: impl Fn(usize, &mut L, &mut Tracer) -> Vec<Op> + Sync,
) -> Window {
    for lane in lanes.iter_mut() {
        lane.begin_window();
    }
    let body = &body;
    let mut tracer = Some(tracer);
    let before = host::usage();
    let ops = std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(i, lane)| {
                let traced = tracer.take();
                s.spawn(move || {
                    let _pinned = host::Affinity::lane(i);
                    match traced {
                        Some(t) => body(i, lane, t),
                        None => body(i, lane, &mut Tracer::off()),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator lane panicked"))
            .collect()
    });
    let after = host::usage();
    Window {
        ops,
        cpu_us: after.cpu_us - before.cpu_us,
        ctx_switches: after.ctx_switches - before.ctx_switches,
        steal_ticks: after.steal_ticks - before.steal_ticks,
    }
}

/// The lanes of one workload and the seed of their open-loop schedules.
pub struct Driver<'a, L: Lane> {
    lanes: &'a mut [L],
    seed: u64,
}

impl<'a, L: Lane> Driver<'a, L> {
    pub fn new(lanes: &'a mut [L], seed: u64) -> Self {
        assert!(
            !lanes.is_empty() && lanes.len() <= host::lanes(),
            "generator lanes must number 1..=nproc/2"
        );
        Driver { lanes, seed }
    }

    /// Closed loop on every lane in parallel.
    pub fn closed(&mut self, stop: Stop) -> Window {
        self.closed_on(self.lanes.len(), stop, &mut Tracer::off())
    }

    /// Closed loop on the first `lanes` lanes; `tracer` follows lane 0.
    pub fn closed_on(&mut self, lanes: usize, stop: Stop, tracer: &mut Tracer) -> Window {
        let start = Instant::now() + Duration::from_millis(1);
        on_lanes(&mut self.lanes[..lanes], tracer, |_, lane, t| {
            wait_until(start);
            let mut ops = Vec::new();
            loop {
                t.next_op();
                let sent = Instant::now();
                t.begin("driver.op");
                let units = lane.op(t);
                t.end();
                let done = Instant::now();
                let sent_s = (sent - start).as_secs_f64();
                ops.push(Op {
                    from_s: sent_s,
                    sent_s,
                    done_s: (done - start).as_secs_f64(),
                    units,
                });
                let finished = match stop {
                    Stop::After(window) => done >= start + window,
                    Stop::Ops(n) => ops.len() as u64 >= n,
                };
                if finished {
                    return ops;
                }
            }
        })
    }

    /// Open loop: `rate` ops per second in total, Poisson, split evenly over
    /// the lanes; each lane's schedule is seeded by (seed, round, lane).
    pub fn open(&mut self, rate: f64, window: Duration, round: u64) -> Window {
        let lanes = self.lanes.len();
        let seed = self.seed;
        let start = Instant::now() + Duration::from_millis(1);
        on_lanes(self.lanes, &mut Tracer::off(), |index, lane, t| {
            let mut rng = Rng::new(seed, &[0x09E4, round, index as u64]);
            let schedule = poisson_schedule(&mut rng, rate / lanes as f64, window.as_secs_f64());
            let mut ops = Vec::with_capacity(schedule.len());
            for from_s in schedule {
                wait_until(start + Duration::from_secs_f64(from_s));
                let sent = Instant::now();
                let units = lane.op(t);
                let done = Instant::now();
                ops.push(Op {
                    from_s,
                    sent_s: (sent - start).as_secs_f64(),
                    done_s: (done - start).as_secs_f64(),
                    units,
                });
            }
            ops
        })
    }

    /// Rounds `rounds` of one closed and one open window each, appended to
    /// `r`. The round number seeds the open window's schedule.
    pub fn rounds(&mut self, r: &mut Rounds, rounds: std::ops::Range<u64>, open_rate: f64) {
        let window = r.window;
        for round in rounds {
            r.calib_us.push(host::calibrate());
            let closed = self.closed(Stop::After(window));
            let units = closed.units().max(1) as f64;
            let mut latency = closed.latency_us();
            r.goodput_per_s.push(closed.goodput_per_s(window));
            r.closed_p50_us.push(percentile(&mut latency, 0.50));
            r.closed_p90_us.push(percentile(&mut latency, 0.90));
            r.closed_p99_us.push(percentile(&mut latency, 0.99));
            r.cpu_us_per_op.push(closed.cpu_us as f64 / units);
            r.ctx_switches_per_op.push(closed.ctx_switches as f64 / units);
            r.closed_steal.push(closed.steal_ticks as f64);

            let open = self.open(open_rate, window, round);
            let (mut latency, mut lateness) = (open.latency_us(), open.lateness_us());
            // A Poisson schedule may leave a short window empty; such a
            // window says nothing and `reduce` passes over it.
            let of = |sample: &mut Vec<f64>, p| match sample.is_empty() {
                true => f64::NAN,
                false => percentile(sample, p),
            };
            r.open_p50_us.push(of(&mut latency, 0.50));
            r.open_p90_us.push(of(&mut latency, 0.90));
            r.open_p99_us.push(of(&mut latency, 0.99));
            r.lateness_p50_us.push(of(&mut lateness, 0.50));
            r.lateness_p99_us.push(of(&mut lateness, 0.99));
            r.open_steal.push(open.steal_ticks as f64);

            r.attempted += closed.attempted() + open.attempted();
            r.failed += closed.failed() + open.failed();
        }
    }
}

/// Per-round values of every driver metric; [`Rounds::reduce`] turns one
/// series into the reported number.
#[derive(Default)]
pub struct Rounds {
    pub goodput_per_s: Vec<f64>,
    pub closed_p50_us: Vec<f64>,
    pub closed_p90_us: Vec<f64>,
    pub closed_p99_us: Vec<f64>,
    pub cpu_us_per_op: Vec<f64>,
    pub ctx_switches_per_op: Vec<f64>,
    pub open_p50_us: Vec<f64>,
    pub open_p90_us: Vec<f64>,
    pub open_p99_us: Vec<f64>,
    pub lateness_p50_us: Vec<f64>,
    pub lateness_p99_us: Vec<f64>,
    pub calib_us: Vec<f64>,
    /// Steal ticks of each closed and each open window.
    pub closed_steal: Vec<f64>,
    pub open_steal: Vec<f64>,
    /// Length of each window.
    pub window: Duration,
    /// Steal ticks above which a window is set aside.
    pub steal_limit: f64,
    /// Ops attempted in timed windows (an op is one request, batch or block).
    pub attempted: u64,
    pub failed: u64,
}

impl Rounds {
    pub fn new(window: Duration) -> Rounds {
        // Steal a window may carry and still count: 1 % of the guest's CPU
        // time, and never less than one tick of the kernel's accounting.
        let capacity_ticks = window.as_secs_f64() * 100.0 * host::nproc() as f64;
        Rounds {
            window,
            steal_limit: (capacity_ticks / 100.0).max(1.0),
            ..Rounds::default()
        }
    }

    /// The median over the rounds whose window stayed within the steal
    /// limit (1 % of the guest's CPU time, or twice the run's median window
    /// if that is more); over all rounds if fewer than three did, so a host
    /// that is disturbed throughout still yields a number (and a high
    /// `driver.rounds_disturbed`). Where the platform reports no steal,
    /// this is the plain median.
    pub fn reduce(&self, values: &[f64], steal: &[f64]) -> f64 {
        // On a host that takes a few per cent all the time, "disturbed"
        // means well above what this run's windows usually lose.
        let limit = self.steal_limit.max(2.0 * median(&mut steal.to_vec()));
        let measured = values.iter().zip(steal).filter(|(v, _)| v.is_finite());
        let mut quiet: Vec<f64> = measured
            .clone()
            .filter(|(_, &ticks)| ticks <= limit)
            .map(|(&v, _)| v)
            .collect();
        if quiet.len() < 3 {
            quiet = measured.map(|(&v, _)| v).collect();
        }
        median(&mut quiet)
    }

    /// A closed-window series reduced.
    pub fn closed(&self, values: &[f64]) -> f64 {
        self.reduce(values, &self.closed_steal)
    }

    /// An open-window series reduced.
    pub fn open(&self, values: &[f64]) -> f64 {
        self.reduce(values, &self.open_steal)
    }

    /// Rounds in which either window went over the steal limit or the
    /// generator ran more than 1 ms late at the median: the host, not the
    /// program, set those numbers.
    pub fn disturbed(&self) -> usize {
        (0..self.closed_steal.len())
            .filter(|&i| {
                self.closed_steal[i] > self.steal_limit
                    || self.open_steal[i] > self.steal_limit
                    || self.lateness_p50_us[i] > 1_000.0
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A lane whose op sleeps 200 µs and fails every tenth time.
    struct Sleepy(u64);

    impl Lane for Sleepy {
        fn op(&mut self, _t: &mut Tracer) -> u32 {
            self.0 += 1;
            std::thread::sleep(Duration::from_micros(200));
            (self.0 % 10 != 0) as u32
        }
    }

    #[test]
    fn closed_and_open_windows_count_what_they_ran() {
        let mut lanes = [Sleepy(0)];
        let mut driver = Driver::new(&mut lanes, 3);
        let closed = driver.closed(Stop::Ops(50));
        assert_eq!((closed.attempted(), closed.failed(), closed.units()), (50, 5, 45));
        assert!(closed.latency_us().iter().all(|&l| l >= 200.0));
        assert!(closed.lateness_us().iter().all(|&l| l == 0.0));

        let open = driver.open(500.0, Duration::from_millis(200), 0);
        // ~100 arrivals expected; Poisson spread is ±30 at most here.
        let attempted = open.attempted();
        assert!((60..140).contains(&attempted), "{attempted}");
        assert!(open.lateness_us().iter().all(|&l| l >= 0.0));
        assert_eq!(lanes[0].0, 50 + attempted);
    }

    #[test]
    fn the_same_seed_gives_the_same_open_schedule() {
        let count = |seed| {
            let mut lanes = [Sleepy(0)];
            Driver::new(&mut lanes, seed)
                .open(400.0, Duration::from_millis(100), 4)
                .attempted()
        };
        assert_eq!(count(11), count(11));
    }

    fn window(ops: Vec<Op>) -> Window {
        Window {
            ops,
            cpu_us: 0,
            ctx_switches: 0,
            steal_ticks: 0,
        }
    }

    #[test]
    fn goodput_is_the_median_slice_and_ignores_a_stall() {
        // 1 s window, ops of 10 ms and 2 units back to back: 200 units/s …
        let steady = |from: usize, to: usize| {
            (from..to).map(|i| Op {
                from_s: i as f64 * 0.01,
                sent_s: i as f64 * 0.01,
                done_s: (i + 1) as f64 * 0.01,
                units: 2,
            })
        };
        let second = Duration::from_secs(1);
        let even = window(steady(0, 100).collect());
        assert!((even.goodput_per_s(second) - 200.0).abs() < 1e-6);
        // … and still 200 with a 250 ms stall in the middle, which plain
        // units ÷ seconds would report as 150.
        let mut ops: Vec<Op> = steady(0, 40).collect();
        ops.push(Op {
            from_s: 0.40,
            sent_s: 0.40,
            done_s: 0.65,
            units: 2,
        });
        ops.extend(steady(65, 100));
        let stalled = window(ops);
        assert!((stalled.goodput_per_s(second) - 200.0).abs() < 1e-6);
        // Failed ops complete nothing.
        let failing = window(steady(0, 100).map(|op| Op { units: 0, ..op }).collect());
        assert_eq!(failing.goodput_per_s(second), 0.0);
    }

    #[test]
    fn disturbed_rounds_are_set_aside() {
        let with_steal = |closed_steal: Vec<f64>| Rounds {
            steal_limit: 2.0,
            closed_steal,
            ..Rounds::default()
        };
        let values = [10.0, 99.0, 12.0, 11.0, 98.0];
        // A quiet host: the two windows that lost 9 and 30 ticks go.
        assert_eq!(with_steal(vec![0.0, 9.0, 1.0, 2.0, 30.0]).closed(&values), 11.0);
        // A host that always takes ~6 ticks: only the outlier goes.
        assert_eq!(with_steal(vec![6.0, 5.0, 7.0, 6.0, 40.0]).closed(&values), 11.5);
        // Two rounds (the smoke run): too few to choose from, all count.
        assert_eq!(with_steal(vec![0.0, 50.0]).closed(&values[..2]), 54.5);
        // An empty open window is passed over.
        assert_eq!(with_steal(vec![0.0; 5]).closed(&[10.0, f64::NAN, 12.0, 11.0, 13.0]), 11.5);
    }
}
