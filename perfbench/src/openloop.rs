//! The open-loop load generator shared by `service_mix` and
//! `fleet_dispatch`: Poisson arrivals at fixed absolute rates, one
//! class per tenant, all drawn from the run's seed.

use grain_counters::rng::Pcg32;
use std::time::{Duration, Instant};

/// One tenant's job class.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Tenant name.
    pub tenant: &'static str,
    /// Arrivals per second.
    pub rate: f64,
    /// Child tasks per job.
    pub tasks: u64,
    /// Calibrated busy-work per task, µs.
    pub grain_us: f64,
    /// Whether the class counts towards `interactive_p99_ms`.
    pub interactive: bool,
}

/// One generated arrival.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// When the job is due, relative to the start of the window.
    pub due: Duration,
    /// Index into the class list.
    pub class: usize,
    /// Seed of the job's inputs.
    pub seed: u64,
}

/// Merged Poisson stream of all classes.
pub struct Arrivals {
    rng: Pcg32,
    classes: Vec<Class>,
    total_rate: f64,
    at: f64,
}

impl Arrivals {
    /// The stream for `classes`, drawn from `seed`.
    pub fn new(seed: u64, classes: &[Class]) -> Self {
        Self {
            rng: Pcg32::seed_from_u64(seed),
            classes: classes.to_vec(),
            total_rate: classes.iter().map(|c| c.rate).sum(),
            at: 0.0,
        }
    }

    /// The next arrival.
    pub fn next_arrival(&mut self) -> Arrival {
        let u = self.rng.next_f64().max(1e-12);
        self.at += -u.ln() / self.total_rate;
        let mut pick = self.rng.next_f64() * self.total_rate;
        let mut class = self.classes.len() - 1;
        for (i, c) in self.classes.iter().enumerate() {
            if pick < c.rate {
                class = i;
                break;
            }
            pick -= c.rate;
        }
        Arrival {
            due: Duration::from_secs_f64(self.at),
            class,
            seed: self.rng.next_u64(),
        }
    }
}

/// Sleep until `due`; returns how late the caller is afterwards.
pub fn sleep_until(due: Instant) -> Duration {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
    Instant::now().saturating_duration_since(due)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_follow_the_rates_and_repeat_per_seed() {
        let classes = [
            Class {
                tenant: "a",
                rate: 900.0,
                tasks: 1,
                grain_us: 1.0,
                interactive: true,
            },
            Class {
                tenant: "b",
                rate: 100.0,
                tasks: 1,
                grain_us: 1.0,
                interactive: false,
            },
        ];
        let mut a = Arrivals::new(7, &classes);
        let v: Vec<Arrival> = (0..10_000).map(|_| a.next_arrival()).collect();
        let share_a = v.iter().filter(|x| x.class == 0).count() as f64 / v.len() as f64;
        assert!((share_a - 0.9).abs() < 0.02, "{share_a}");
        let span = v.last().expect("non-empty").due.as_secs_f64();
        assert!((span - 10.0).abs() < 0.5, "{span}");
        let mut b = Arrivals::new(7, &classes);
        assert_eq!(b.next_arrival().seed, v[0].seed);
    }
}
