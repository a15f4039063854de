//! Optimizers and learning-rate schedules.
//!
//! The paper trains with plain mini-batch SGD and lists two families of
//! refinements from the surrounding literature (§III): *adaptive learning
//! rates*, which "reduced the iterations needed to converge", and
//! *momentum* (standard for CD training per Hinton's practical guide, the
//! paper's ref \[15\]). Both are implemented here as drop-in replacements
//! for the plain update, with the same backend/cost instrumentation so
//! they participate in the simulated-time accounting.

use crate::exec::ExecCtx;

/// A learning-rate schedule: maps the update counter to a rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fixed rate.
    Constant(f32),
    /// `base * factor^(step / every)` — staircase decay.
    Step {
        /// Initial rate.
        base: f32,
        /// Multiplier applied once per stage.
        factor: f32,
        /// Updates per stage.
        every: u64,
    },
    /// `base * gamma^step` — smooth exponential decay.
    Exponential {
        /// Initial rate.
        base: f32,
        /// Per-update decay (e.g. 0.9999).
        gamma: f32,
    },
    /// `base / sqrt(1 + step / t0)` — the classic Robbins-Monro-style
    /// decay used with online SGD.
    InvSqrt {
        /// Initial rate.
        base: f32,
        /// Time constant in updates.
        t0: f64,
    },
}

impl Schedule {
    /// The learning rate for update number `step` (0-based).
    pub fn rate_at(&self, step: u64) -> f32 {
        match *self {
            Schedule::Constant(r) => r,
            Schedule::Step {
                base,
                factor,
                every,
            } => {
                let stages = (step / every.max(1)) as i32;
                base * factor.powi(stages)
            }
            Schedule::Exponential { base, gamma } => base * gamma.powf(step as f32),
            Schedule::InvSqrt { base, t0 } => {
                (base as f64 / (1.0 + step as f64 / t0.max(1e-9)).sqrt()) as f32
            }
        }
    }
}

/// Update rule for one parameter tensor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// `w -= lr * (g + lambda w)` (the paper's update).
    Sgd,
    /// Classical momentum: `v = mu v - lr g; w = (1 - lr lambda) w + v`.
    Momentum {
        /// Momentum coefficient (Hinton's guide suggests 0.5 → 0.9).
        mu: f32,
    },
    /// AdaGrad: per-coordinate rates `w -= lr / sqrt(G + eps) * g`.
    AdaGrad {
        /// Numerical floor inside the square root.
        eps: f32,
    },
}

/// Optimizer state for a fixed set of parameter tensors ("slots").
///
/// Slots are registered up front with their lengths so the state buffers
/// live once, mirroring the paper's keep-temporaries-resident discipline.
#[derive(Debug, Clone)]
pub struct Optimizer {
    rule: Rule,
    schedule: Schedule,
    step_count: u64,
    state: Vec<Vec<f32>>,
}

impl Optimizer {
    /// Creates an optimizer with the given rule and schedule over
    /// `slot_lens` parameter tensors.
    pub fn new(rule: Rule, schedule: Schedule, slot_lens: &[usize]) -> Self {
        let state = match rule {
            Rule::Sgd => slot_lens.iter().map(|_| Vec::new()).collect(),
            Rule::Momentum { .. } | Rule::AdaGrad { .. } => {
                slot_lens.iter().map(|&n| vec![0.0f32; n]).collect()
            }
        };
        Optimizer {
            rule,
            schedule,
            step_count: 0,
            state,
        }
    }

    /// Plain SGD with a constant rate — the paper's configuration.
    pub fn sgd(lr: f32, slots: usize) -> Self {
        Optimizer::new(Rule::Sgd, Schedule::Constant(lr), &vec![0; slots])
    }

    /// Rebuilds an optimizer from persisted state (checkpoint resume).
    ///
    /// `state` must hold one buffer per slot, exactly as returned by
    /// [`Optimizer::state_slots`] at save time.
    pub fn restore(rule: Rule, schedule: Schedule, step_count: u64, state: Vec<Vec<f32>>) -> Self {
        Optimizer {
            rule,
            schedule,
            step_count,
            state,
        }
    }

    /// The update rule in use.
    pub fn rule(&self) -> Rule {
        self.rule
    }

    /// The learning-rate schedule in use.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Per-slot auxiliary state (momentum velocities / AdaGrad accumulators;
    /// empty buffers for plain SGD). Exposed for checkpointing.
    pub fn state_slots(&self) -> &[Vec<f32>] {
        &self.state
    }

    /// Updates applied so far (drives the schedule).
    pub fn steps(&self) -> u64 {
        self.step_count
    }

    /// Current learning rate.
    pub fn current_rate(&self) -> f32 {
        self.schedule.rate_at(self.step_count)
    }

    /// Marks one whole model update (advances the schedule). Call once per
    /// batch after updating every slot.
    pub fn advance(&mut self) {
        self.step_count += 1;
    }

    /// Applies the rule to slot `slot`: `w` updated in place from gradient
    /// `g` with weight decay `lambda`.
    pub fn step_slot(&mut self, ctx: &ExecCtx, slot: usize, lambda: f32, g: &[f32], w: &mut [f32]) {
        assert!(
            slot < self.state.len(),
            "unregistered optimizer slot {slot}"
        );
        assert_eq!(g.len(), w.len(), "gradient/parameter length mismatch");
        let lr = self.current_rate();
        match self.rule {
            Rule::Sgd => {
                ctx.sgd_step(lr, lambda, g, w);
            }
            Rule::Momentum { mu } => {
                let v = &mut self.state[slot];
                assert_eq!(v.len(), w.len(), "slot {slot} registered with wrong length");
                // v = mu v - lr g  (two fused-style sweeps through the ctx
                // so simulated time is charged faithfully).
                ctx.scale(mu, v);
                ctx.axpy(-lr, g, v);
                // w = (1 - lr lambda) w + v
                ctx.scale(1.0 - lr * lambda, w);
                ctx.axpy(1.0, v, w);
            }
            Rule::AdaGrad { eps } => {
                let acc = &mut self.state[slot];
                assert_eq!(
                    acc.len(),
                    w.len(),
                    "slot {slot} registered with wrong length"
                );
                // Accumulate squared gradients and apply the per-coordinate
                // scaled update in one pass (scalar loop: AdaGrad is not a
                // paper optimization, so it is not cost-instrumented beyond
                // an elementwise charge via sgd_step on a scratch).
                for i in 0..w.len() {
                    acc[i] += g[i] * g[i];
                    let adapted = lr / (acc[i] + eps).sqrt();
                    w[i] = (1.0 - lr * lambda) * w[i] - adapted * g[i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecCtx, OptLevel};

    fn ctx() -> ExecCtx {
        ExecCtx::native(OptLevel::Improved, 0)
    }

    #[test]
    fn schedules_decay_correctly() {
        let c = Schedule::Constant(0.1);
        assert_eq!(c.rate_at(0), 0.1);
        assert_eq!(c.rate_at(1000), 0.1);

        let s = Schedule::Step {
            base: 1.0,
            factor: 0.5,
            every: 10,
        };
        assert_eq!(s.rate_at(0), 1.0);
        assert_eq!(s.rate_at(9), 1.0);
        assert_eq!(s.rate_at(10), 0.5);
        assert_eq!(s.rate_at(25), 0.25);

        let e = Schedule::Exponential {
            base: 1.0,
            gamma: 0.9,
        };
        assert!((e.rate_at(2) - 0.81).abs() < 1e-6);

        let i = Schedule::InvSqrt { base: 1.0, t0: 1.0 };
        assert!((i.rate_at(0) - 1.0).abs() < 1e-6);
        assert!((i.rate_at(3) - 0.5).abs() < 1e-6);
        // All monotone non-increasing.
        for sched in [c, s, e, i] {
            let mut last = f32::INFINITY;
            for step in 0..50 {
                let r = sched.rate_at(step);
                assert!(r <= last + 1e-9, "{sched:?} increased at {step}");
                assert!(r > 0.0);
                last = r;
            }
        }
    }

    #[test]
    fn sgd_rule_matches_ctx_step() {
        let ctx = ctx();
        let g = vec![1.0f32, -2.0, 0.5];
        let mut w1 = vec![1.0f32, 1.0, 1.0];
        let mut w2 = w1.clone();
        let mut opt = Optimizer::sgd(0.1, 1);
        opt.step_slot(&ctx, 0, 0.01, &g, &mut w1);
        ctx.sgd_step(0.1, 0.01, &g, &mut w2);
        assert_eq!(w1, w2);
    }

    #[test]
    fn momentum_accelerates_along_constant_gradient() {
        let ctx = ctx();
        let g = vec![1.0f32; 4];
        let mut w_sgd = vec![0.0f32; 4];
        let mut w_mom = vec![0.0f32; 4];
        let mut sgd = Optimizer::sgd(0.1, 1);
        let mut mom = Optimizer::new(Rule::Momentum { mu: 0.9 }, Schedule::Constant(0.1), &[4]);
        for _ in 0..20 {
            sgd.step_slot(&ctx, 0, 0.0, &g, &mut w_sgd);
            mom.step_slot(&ctx, 0, 0.0, &g, &mut w_mom);
            sgd.advance();
            mom.advance();
        }
        // With a constant gradient, momentum travels much farther.
        assert!(
            w_mom[0] < 3.0 * w_sgd[0],
            "momentum should outrun sgd: {} vs {}",
            w_mom[0],
            w_sgd[0]
        );
        assert!(w_mom[0].abs() > 1.5 * w_sgd[0].abs());
    }

    #[test]
    fn adagrad_shrinks_effective_rate() {
        let ctx = ctx();
        let g = vec![2.0f32; 3];
        let mut w = vec![0.0f32; 3];
        let mut opt = Optimizer::new(Rule::AdaGrad { eps: 1e-8 }, Schedule::Constant(0.5), &[3]);
        opt.step_slot(&ctx, 0, 0.0, &g, &mut w);
        let first_move = w[0].abs();
        let before = w[0];
        opt.step_slot(&ctx, 0, 0.0, &g, &mut w);
        let second_move = (w[0] - before).abs();
        assert!(second_move < first_move, "adagrad rate must shrink");
        assert!(first_move > 0.0);
    }

    #[test]
    fn momentum_converges_quadratic_faster() {
        // Minimize f(w) = 0.5 w^T w from w = 1.
        let ctx = ctx();
        let run = |rule: Rule| {
            let mut opt = Optimizer::new(rule, Schedule::Constant(0.05), &[1]);
            let mut w = vec![1.0f32];
            for _ in 0..100 {
                let g = w.clone();
                opt.step_slot(&ctx, 0, 0.0, &g, &mut w);
                opt.advance();
            }
            w[0].abs()
        };
        let sgd_final = run(Rule::Sgd);
        let mom_final = run(Rule::Momentum { mu: 0.8 });
        assert!(
            mom_final < sgd_final,
            "momentum {mom_final} vs sgd {sgd_final}"
        );
    }

    #[test]
    #[should_panic(expected = "unregistered optimizer slot")]
    fn unknown_slot_rejected() {
        let ctx = ctx();
        let mut opt = Optimizer::sgd(0.1, 1);
        opt.step_slot(&ctx, 3, 0.0, &[1.0], &mut [1.0]);
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn momentum_slot_length_checked() {
        let ctx = ctx();
        let mut opt = Optimizer::new(Rule::Momentum { mu: 0.9 }, Schedule::Constant(0.1), &[2]);
        opt.step_slot(&ctx, 0, 0.0, &[1.0, 1.0, 1.0], &mut [1.0, 1.0, 1.0]);
    }
}
