//! Shared configuration for the parallel facility-location algorithms.

/// Configuration shared by the parallel greedy, primal-dual and LP-rounding algorithms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlConfig {
    /// The slack parameter `ε > 0` of the paper: every round admits all elements within
    /// a `(1 + ε)` factor of the cheapest. Smaller values track the sequential algorithm
    /// more closely (better constants, more rounds); larger values increase parallelism.
    pub epsilon: f64,
    /// RNG seed for the randomized subselection / dominator-set steps. Fixed seed ⇒
    /// deterministic output.
    pub seed: u64,
    /// Whether to run the `γ/m²` preprocessing step that bounds the number of rounds
    /// (Sections 4 and 5). Disabling it is an ablation knob for experiment E10; the
    /// guarantees still hold but the round bound becomes input-dependent.
    pub preprocess: bool,
    /// Whether the greedy subselection uses the paper's `deg/(2(1+ε))` vote threshold.
    /// Disabling it ("open every candidate") is an ablation knob for experiment E10 and
    /// voids the approximation guarantee.
    pub subselection: bool,
    /// Cap on outer rounds (the theory bounds rounds by `O(log_{1+ε} m)`). Primal-dual
    /// refuses up front when its derived bound exceeds the cap; elsewhere the cap is
    /// orders of magnitude above the bound and turns a logic bug into a panic instead
    /// of an infinite loop.
    pub max_rounds: usize,
}

impl FlConfig {
    /// Creates a configuration with the given `ε`, defaulting to preprocessing on,
    /// subselection on, and seed 0.
    ///
    /// # Panics
    /// Panics if `epsilon` is not a positive finite number, or exceeds 1
    /// (where the `+ ε` in every guarantee certifies nothing).
    pub fn new(epsilon: f64) -> Self {
        assert!(
            epsilon.is_finite() && epsilon > 0.0,
            "epsilon must be positive and finite, got {epsilon}"
        );
        assert!(epsilon <= 1.0, "epsilon must be at most 1, got {epsilon}");
        FlConfig {
            epsilon,
            seed: 0,
            preprocess: true,
            subselection: true,
            max_rounds: 100_000,
        }
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables the round-bounding preprocessing step (ablation).
    pub fn with_preprocess(mut self, preprocess: bool) -> Self {
        self.preprocess = preprocess;
        self
    }

    /// Enables or disables the greedy subselection vote threshold (ablation).
    pub fn with_subselection(mut self, subselection: bool) -> Self {
        self.subselection = subselection;
        self
    }
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig::new(0.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let cfg = FlConfig::new(0.25)
            .with_seed(9)
            .with_preprocess(false)
            .with_subselection(false);
        assert_eq!(cfg.epsilon, 0.25);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.preprocess);
        assert!(!cfg.subselection);
    }

    #[test]
    fn default_is_sane() {
        let cfg = FlConfig::default();
        assert!(cfg.epsilon > 0.0);
        assert!(cfg.preprocess);
        assert!(cfg.subselection);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_epsilon_rejected() {
        let _ = FlConfig::new(0.0);
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_epsilon_rejected() {
        let _ = FlConfig::new(f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "at most 1, got 1.5")]
    fn epsilon_above_one_rejected() {
        assert_eq!(FlConfig::new(1.0).epsilon, 1.0);
        let _ = FlConfig::new(1.5);
    }
}
